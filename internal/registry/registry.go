package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/nn"
	"cdbtune/internal/vfs"
)

// entryMagic tags the CRC32 integrity footer of every registry entry. reg1
// framed one gob of {Meta, Model}; a file still in that format fails the
// footer check and is skipped as corrupt.
var entryMagic = [4]byte{'r', 'e', 'g', '2'}

// DefaultMaxEntries bounds the collection when Open is not told otherwise.
const DefaultMaxEntries = 64

// Meta describes one registered model. The registry owns ID, Version, Seq
// and the timestamps; everything else is the caller's.
type Meta struct {
	// ID names the entry (and its file, <ID>.model). Empty on Put creates
	// a new entry; a known ID updates it in place.
	ID string
	// Workload and Instance label the training conditions for humans; the
	// Fingerprint is what lookup actually matches on.
	Workload string
	Instance string
	// Fingerprint is the workload fingerprint the model was trained under
	// (see Fingerprint in this package).
	Fingerprint []float64
	// Version counts writes of this entry: 1 on creation, +1 per
	// fine-tune update.
	Version int
	// Episodes is the cumulative training episodes baked into the model;
	// ScratchEpisodes what the original from-scratch training cost (the
	// baseline against which a warm start's savings are measured).
	Episodes        int
	ScratchEpisodes int
	// BestThroughput is the best stress-test throughput the model has
	// achieved (txn/sec).
	BestThroughput float64
	// Pinned marks a promoted entry: preferred on near-ties and protected
	// from eviction.
	Pinned bool

	CreatedUnix int64
	UpdatedUnix int64
	// Seq is a registry-assigned monotone update counter; eviction removes
	// the unpinned entry with the lowest Seq.
	Seq int64
}

// entryBlob is one decoded entry file. On disk, inside the CRC frame: a
// u32 little-endian length, that many bytes of gob-encoded Meta, then the
// model bytes exactly as Put received them, up to the footer.
type entryBlob struct {
	Meta  Meta
	Model []byte
}

// Registry is a persistent, concurrency-safe collection of trained models.
type Registry struct {
	dir string
	max int
	fs  vfs.FS

	mu      sync.Mutex
	entries map[string]Meta
	corrupt map[string]string // file base name -> reason
	seq     int64
	nextID  int
	logf    func(format string, args ...any)

	// changeHook, when set, is called with every mutation *before* it
	// touches the entry files — the write-ahead point Shared uses to append
	// the change log. A hook error aborts the mutation.
	changeHook func(Change) error
}

// Store is the registry surface the serving layer depends on. Both the
// in-process *Registry and the lease-replicated *Shared implement it, so
// a single-process server and a fleet node run the same Manager code.
type Store interface {
	Put(meta Meta, model []byte) (Meta, error)
	Get(id string) (Meta, []byte, error)
	Nearest(fp []float64) (Match, bool)
	NearestWithin(fp []float64, radius float64) (Match, bool)
	List() []Meta
	Corrupt() map[string]string
	Len() int
	Promote(id string) error
	Delete(id string) error
}

var (
	_ Store = (*Registry)(nil)
	_ Store = (*Shared)(nil)
)

// Option customizes Open.
type Option func(*Registry)

// WithMaxEntries bounds the collection (default DefaultMaxEntries).
func WithMaxEntries(n int) Option {
	return func(r *Registry) {
		if n > 0 {
			r.max = n
		}
	}
}

// WithFS runs the registry on an explicit filesystem instead of the
// production passthrough — the seam the crash-consistency harness uses to
// inject faults and power cuts under every entry write.
func WithFS(fsys vfs.FS) Option {
	return func(r *Registry) {
		if fsys != nil {
			r.fs = fsys
		}
	}
}

// WithLogf redirects the registry's complaints about corrupt entries
// (default log.Printf). Corruption is never silent: skipped entries are
// both logged and recorded in Corrupt.
func WithLogf(f func(format string, args ...any)) Option {
	return func(r *Registry) {
		if f != nil {
			r.logf = f
		}
	}
}

// Open loads (creating if needed) the registry rooted at dir. Entries
// that fail their integrity check are skipped loudly: logged, recorded in
// Corrupt, and left on disk for inspection.
func Open(dir string, opts ...Option) (*Registry, error) {
	r := &Registry{
		dir:     dir,
		max:     DefaultMaxEntries,
		fs:      vfs.OS,
		entries: make(map[string]Meta),
		corrupt: make(map[string]string),
		logf:    log.Printf,
	}
	for _, o := range opts {
		o(r)
	}
	// Durable mkdir: a registry whose directory entry is still volatile
	// loses every fsync'd model file with it on a power cut.
	if err := vfs.MkdirAllDurable(r.fs, dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	files, err := r.fs.Glob(filepath.Join(dir, "*.model"))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, f := range files {
		blob, err := readEntry(r.fs, f)
		if err != nil {
			r.noteCorrupt(filepath.Base(f), err)
			continue
		}
		r.entries[blob.Meta.ID] = blob.Meta
		if blob.Meta.Seq > r.seq {
			r.seq = blob.Meta.Seq
		}
		var n int
		if _, err := fmt.Sscanf(blob.Meta.ID, "m%d", &n); err == nil && n >= r.nextID {
			r.nextID = n + 1
		}
	}
	return r, nil
}

// Dir reports the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// Len reports the number of healthy entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// List returns the healthy entries sorted by ID.
func (r *Registry) List() []Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Meta, 0, len(r.entries))
	for _, m := range r.entries {
		out = append(out, cloneMeta(m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Corrupt reports the entry files skipped for failing their integrity
// check (file base name → reason), since Open.
func (r *Registry) Corrupt() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.corrupt))
	for k, v := range r.corrupt {
		out[k] = v
	}
	return out
}

// Put stores a model. An empty meta.ID creates a new entry; a known ID
// updates it in place, preserving CreatedUnix and bumping Version — the
// fine-tune path never duplicates a model. The returned Meta carries the
// registry-assigned fields. Storing may evict the least-recently-updated
// unpinned entry once the collection exceeds its bound.
func (r *Registry) Put(meta Meta, model []byte) (Meta, error) {
	if len(model) == 0 {
		return Meta{}, fmt.Errorf("registry: refusing to store empty model")
	}
	if len(meta.Fingerprint) == 0 {
		return Meta{}, fmt.Errorf("registry: refusing to store model without fingerprint")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now().Unix()
	if meta.ID == "" {
		meta.ID = fmt.Sprintf("m%04d", r.nextID)
		r.nextID++
		meta.Version = 1
		meta.CreatedUnix = now
	} else if prev, ok := r.entries[meta.ID]; ok {
		meta.Version = prev.Version + 1
		meta.CreatedUnix = prev.CreatedUnix
		if meta.ScratchEpisodes == 0 {
			meta.ScratchEpisodes = prev.ScratchEpisodes
		}
		// A fine-tune write-back must not silently unpin a promoted
		// model; the pin survives updates (only Delete removes it).
		meta.Pinned = meta.Pinned || prev.Pinned
	} else {
		// Caller-chosen ID for a fresh entry.
		if meta.Version == 0 {
			meta.Version = 1
		}
		meta.CreatedUnix = now
	}
	meta.UpdatedUnix = now
	r.seq++
	meta.Seq = r.seq
	if err := r.noteChangeLocked(Change{Op: OpPut, ID: meta.ID, Version: meta.Version, Pinned: meta.Pinned}); err != nil {
		return Meta{}, err
	}
	if err := r.writeLocked(meta, model); err != nil {
		return Meta{}, err
	}
	r.entries[meta.ID] = cloneMeta(meta)
	delete(r.corrupt, meta.ID+".model")
	if err := r.evictLocked(); err != nil {
		// The new entry is stored and durable; what failed is making the
		// eviction's unlink durable. Fail the Put anyway: a success here
		// would promise the caller a bounded collection while a crash
		// could resurrect the victim. A retry converges (version bump on
		// an already-stored entry, eviction re-attempted).
		return Meta{}, err
	}
	return meta, nil
}

// Get returns an entry's metadata and model bytes, re-verifying the file's
// integrity. A file that went corrupt after Open is skipped loudly: the
// entry is dropped from the index, recorded in Corrupt, and an error
// returned.
func (r *Registry) Get(id string) (Meta, []byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(id)
}

func (r *Registry) getLocked(id string) (Meta, []byte, error) {
	if _, ok := r.entries[id]; !ok {
		return Meta{}, nil, fmt.Errorf("registry: no entry %q", id)
	}
	blob, err := readEntry(r.fs, r.path(id))
	if err != nil {
		r.noteCorrupt(id+".model", err)
		delete(r.entries, id)
		return Meta{}, nil, fmt.Errorf("registry: entry %q: %w", id, err)
	}
	return blob.Meta, blob.Model, nil
}

// Match is the outcome of a nearest-fingerprint lookup.
type Match struct {
	Meta     Meta
	Model    []byte
	Distance float64
}

// Nearest returns the healthy entry whose fingerprint is closest to fp
// (normalized RMS Euclidean distance; see Distance), verifying the
// winner's file before returning it. Entries that fail verification are
// skipped loudly and the next-nearest survivor is returned instead. A
// pinned entry wins a near-tie (within 1% distance) against an unpinned
// one. ok is false when the registry holds no readable entry.
func (r *Registry) Nearest(fp []float64) (Match, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type cand struct {
		id  string
		d   float64
		pin bool
	}
	var cands []cand
	for id, m := range r.entries {
		d, err := Distance(fp, m.Fingerprint)
		if err != nil {
			continue // dimension mismatch: a different metric layout, never a match
		}
		cands = append(cands, cand{id: id, d: d, pin: m.Pinned})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.pin != b.pin && nearTie(a.d, b.d) {
			return a.pin
		}
		return a.d < b.d
	})
	for _, c := range cands {
		meta, model, err := r.getLocked(c.id)
		if err != nil {
			continue // already logged and recorded; try the next survivor
		}
		return Match{Meta: meta, Model: model, Distance: c.d}, true
	}
	return Match{}, false
}

// NearestWithin is Nearest restricted to a match radius: lookups whose
// best candidate sits farther than radius return ok = false, so callers
// warm-seeding a re-tune can fall back to their current weights instead
// of adopting a model trained for an unrelated workload. A radius ≤ 0
// means unrestricted.
func (r *Registry) NearestWithin(fp []float64, radius float64) (Match, bool) {
	m, ok := r.Nearest(fp)
	if !ok || (radius > 0 && m.Distance > radius) {
		return Match{}, false
	}
	return m, true
}

// nearTie reports whether two distances are within 1% (relative) of each
// other.
func nearTie(a, b float64) bool {
	hi := a
	if b > hi {
		hi = b
	}
	if hi == 0 {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d/hi <= 0.01
}

// Promote pins an entry: protected from eviction and preferred on
// near-tie lookups. The entry file is rewritten (same version).
func (r *Registry) Promote(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	meta, model, err := r.getLocked(id)
	if err != nil {
		return err
	}
	if meta.Pinned {
		return nil
	}
	meta.Pinned = true
	meta.UpdatedUnix = time.Now().Unix()
	if err := r.noteChangeLocked(Change{Op: OpPromote, ID: id, Version: meta.Version, Pinned: true}); err != nil {
		return err
	}
	if err := r.writeLocked(meta, model); err != nil {
		return err
	}
	r.entries[id] = cloneMeta(meta)
	return nil
}

// Delete removes an entry and its file. Deleting an unknown ID is an
// error; deleting an entry whose file already vanished is not.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return fmt.Errorf("registry: no entry %q", id)
	}
	if err := r.noteChangeLocked(Change{Op: OpDelete, ID: id}); err != nil {
		return err
	}
	if err := r.fs.Remove(r.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: delete %q: %w", id, err)
	}
	// Make the unlink durable: without the directory fsync a crash can
	// resurrect the deleted entry, and a follower that already applied the
	// delete record would serve a model the operator removed.
	if err := r.fs.SyncDir(r.dir); err != nil {
		return fmt.Errorf("registry: delete %q: %w", id, err)
	}
	delete(r.entries, id)
	return nil
}

// evictLocked removes least-recently-updated unpinned entries until the
// collection fits its bound. A collection of nothing but pinned entries is
// allowed to exceed the bound (with a complaint). An unlink that cannot
// be completed and made durable is an error: the victim stays indexed
// (disk and memory agree) and the caller's mutation fails rather than
// acking an eviction a crash could undo.
func (r *Registry) evictLocked() error {
	for len(r.entries) > r.max {
		victim := ""
		var low int64
		for id, m := range r.entries {
			if m.Pinned {
				continue
			}
			if victim == "" || m.Seq < low {
				victim, low = id, m.Seq
			}
		}
		if victim == "" {
			r.logf("registry: %d entries all pinned, over the %d bound; not evicting", len(r.entries), r.max)
			return nil
		}
		if err := r.noteChangeLocked(Change{Op: OpEvict, ID: victim}); err != nil {
			r.logf("registry: eviction of %s not logged (%v); keeping the entry", victim, err)
			return nil
		}
		if err := r.fs.Remove(r.path(victim)); err != nil && !os.IsNotExist(err) {
			r.logf("registry: evicting %s: %v", victim, err)
			return fmt.Errorf("registry: evicting %s: %w", victim, err)
		}
		delete(r.entries, victim)
		// Durable unlink, same as Delete: an evicted entry that resurrects
		// after a crash would push the collection back over its bound and
		// resurface a model every follower already forgot.
		if err := r.fs.SyncDir(r.dir); err != nil {
			return fmt.Errorf("registry: evicting %s: dir sync: %w", victim, err)
		}
		r.logf("registry: evicted %s (collection over %d entries)", victim, r.max)
	}
	return nil
}

// noteChangeLocked runs the change hook (when installed) ahead of a
// mutation's disk writes; callers hold r.mu.
func (r *Registry) noteChangeLocked(ch Change) error {
	if r.changeHook == nil {
		return nil
	}
	return r.changeHook(ch)
}

// setChangeHook installs the write-ahead mutation hook (see Shared).
func (r *Registry) setChangeHook(hook func(Change) error) {
	r.mu.Lock()
	r.changeHook = hook
	r.mu.Unlock()
}

// ReloadEntry re-reads one entry file into the index — how a process
// picks up another process's write to the shared directory. A vanished
// file drops the entry from the index (not an error: deletes and evicts
// look like this from a follower); a corrupt one is skipped loudly.
func (r *Registry) ReloadEntry(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := readEntry(r.fs, r.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			delete(r.entries, id)
			return nil
		}
		r.noteCorrupt(id+".model", err)
		delete(r.entries, id)
		return fmt.Errorf("registry: reload %q: %w", id, err)
	}
	r.entries[id] = blob.Meta
	delete(r.corrupt, id+".model")
	if blob.Meta.Seq > r.seq {
		r.seq = blob.Meta.Seq
	}
	var n int
	if _, err := fmt.Sscanf(blob.Meta.ID, "m%d", &n); err == nil && n >= r.nextID {
		r.nextID = n + 1
	}
	return nil
}

// Forget drops an entry from the in-memory index without touching its
// file — applying another process's delete or evict.
func (r *Registry) Forget(id string) {
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
}

// Peek returns an entry's indexed metadata without re-reading its file.
func (r *Registry) Peek(id string) (Meta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.entries[id]
	if !ok {
		return Meta{}, false
	}
	return cloneMeta(m), true
}

// Verify re-reads every entry file under the registry directory and
// checks its CRC frame, independent of the in-memory index — the
// post-chaos validation the fleet harness runs. It reports the number of
// healthy entries and the corrupt files (base name → reason).
func (r *Registry) Verify() (healthy int, corrupt map[string]string) {
	corrupt = make(map[string]string)
	files, err := r.fs.Glob(filepath.Join(r.dir, "*.model"))
	if err != nil {
		corrupt["(glob)"] = err.Error()
		return 0, corrupt
	}
	for _, f := range files {
		if _, err := readEntry(r.fs, f); err != nil {
			corrupt[filepath.Base(f)] = err.Error()
			continue
		}
		healthy++
	}
	return healthy, corrupt
}

func (r *Registry) path(id string) string {
	return filepath.Join(r.dir, id+".model")
}

func (r *Registry) noteCorrupt(file string, err error) {
	reason := err.Error()
	// Keep the reason short in the index; the log line has the full text.
	if i := strings.IndexByte(reason, '\n'); i >= 0 {
		reason = reason[:i]
	}
	r.corrupt[file] = reason
	r.logf("registry: skipping corrupt entry %s: %v", file, err)
}

// writeLocked persists one entry atomically, streaming the frame — meta
// header, the caller's model bytes as they are, CRC footer — through the
// checksumming writer into the temp file.
func (r *Registry) writeLocked(meta Meta, model []byte) error {
	var head bytes.Buffer
	head.Write(make([]byte, 4)) // the gob length, known once it is encoded
	if err := gob.NewEncoder(&head).Encode(meta); err != nil {
		return fmt.Errorf("registry: encode %q: %w", meta.ID, err)
	}
	binary.LittleEndian.PutUint32(head.Bytes(), uint32(head.Len()-4))
	return nn.WriteAtomicFS(r.fs, r.path(meta.ID), func(w io.Writer) error {
		f := core.NewFrameWriter(w)
		if _, err := f.Write(head.Bytes()); err != nil {
			return err
		}
		if _, err := f.Write(model); err != nil {
			return err
		}
		return f.Finish(entryMagic)
	})
}

// readEntry reads and verifies one entry file.
func readEntry(fsys vfs.FS, path string) (entryBlob, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return entryBlob{}, err
	}
	return decodeEntry(data)
}

// decodeEntry verifies an entry file's CRC frame and splits it. The model
// is handed back as a sub-slice of data, not a copy.
func decodeEntry(data []byte) (entryBlob, error) {
	var blob entryBlob
	payload, err := core.ReadFramed(data, entryMagic, "registry entry")
	if err != nil {
		return blob, err
	}
	if len(payload) < 4 {
		return blob, fmt.Errorf("registry entry: %d-byte payload has no meta header", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	if uint64(n) >= uint64(len(payload)) {
		return blob, fmt.Errorf("registry entry: meta header declares %d bytes, %d remain for it and the model", n, len(payload))
	}
	if err := gob.NewDecoder(bytes.NewReader(payload[:n])).Decode(&blob.Meta); err != nil {
		return blob, fmt.Errorf("registry entry: decode meta: %w", err)
	}
	if blob.Meta.ID == "" {
		return blob, fmt.Errorf("registry entry: blank ID")
	}
	blob.Model = payload[n:]
	return blob, nil
}

func cloneMeta(m Meta) Meta {
	m.Fingerprint = append([]float64(nil), m.Fingerprint...)
	return m
}
