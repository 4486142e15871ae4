package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdbtune/internal/vfs"
)

// ErrShortAppend reports that an Append failed mid-frame — a short write
// or I/O error from a full or faulty disk. The torn bytes have already
// been truncated away (the log's tail is back at the last good frame),
// so the caller may safely retry the same record once the condition
// clears; nothing partial remains on disk either way.
var ErrShortAppend = errors.New("registry: change log append cut short (tail reclaimed, retry safe)")

// DebugSkipTailReclaim re-introduces the pre-crash-harness torn-tail bug
// for detector-sensitivity testing ONLY: Append overwrites a torn tail
// in place instead of truncating it first, so a replacement frame
// shorter than the torn remnant leaves mid-frame garbage that wedges
// later reads. The crashtest suite flips it on to prove the harness
// catches exactly this class of bug; nothing else may set it.
var DebugSkipTailReclaim bool

// Change operations recorded in the registry change log.
const (
	OpPut     = "put"
	OpPromote = "promote"
	OpDelete  = "delete"
	OpEvict   = "evict"
)

// walMagic tags every change-log frame.
var walMagic = [4]byte{'w', 'c', 'h', 'g'}

// Change is one registry mutation in the write-ahead change log. Version
// and Pinned carry the expected post-state for puts and promotions, so a
// follower that replays the record before the entry file lands can tell
// it is still looking at the old bytes and retry — no lost promotion, no
// torn read served as current.
type Change struct {
	Seq     int64  `json:"seq"`
	Op      string `json:"op"`
	ID      string `json:"id"`
	Version int    `json:"version,omitempty"`
	Pinned  bool   `json:"pinned,omitempty"`
	// Epoch is the writer's registry-lease epoch at append time.
	Epoch  int64 `json:"epoch,omitempty"`
	UnixMs int64 `json:"unix_ms"`
}

// ChangeLog is an append-only, CRC-framed log of registry mutations
// shared by every process serving one registry directory. Appends happen
// under the registry write lease and are fsync'd; Tail reads whatever
// other writers appended since the last call. A torn final frame (a
// writer crashed mid-append) is tolerated: Tail stops in front of it and
// re-reads it once it is complete.
type ChangeLog struct {
	path string
	fs   vfs.FS

	mu      sync.Mutex
	f       vfs.File
	off     int64 // read position: everything before off has been returned by Tail
	lastSeq int64
}

// OpenChangeLog opens (creating if needed) the change log at path on the
// production filesystem. The read position starts at zero: the first
// Tail returns the full history.
func OpenChangeLog(path string) (*ChangeLog, error) {
	return OpenChangeLogFS(vfs.OS, path)
}

// OpenChangeLogFS is OpenChangeLog over an explicit filesystem. When the
// call creates the log file it fsyncs the parent directory, so a log
// whose first appends were acked cannot vanish wholesale because its
// directory entry was never made durable.
func OpenChangeLogFS(fsys vfs.FS, path string) (*ChangeLog, error) {
	_, serr := fsys.Stat(path)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registry: change log: %w", err)
	}
	if os.IsNotExist(serr) {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("registry: change log: %w", err)
		}
	}
	return &ChangeLog{path: path, fs: fsys, f: f}, nil
}

// Close releases the log's file handle.
func (c *ChangeLog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}

// Tail returns the records appended since the previous Tail (or since
// Open). A torn final frame is not an error: it stays unread until the
// writer finishes it. A corrupt frame, or tail bytes that cannot be the
// start of one, is an error — the records before it are still returned,
// and the read position stops in front of the damage so the problem
// stays visible.
func (c *ChangeLog) Tail() ([]Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tailLocked()
}

func (c *ChangeLog) tailLocked() ([]Change, error) {
	st, err := c.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("registry: change log: %w", err)
	}
	if st.Size() <= c.off {
		return nil, nil
	}
	buf := make([]byte, st.Size()-c.off)
	if _, err := c.f.ReadAt(buf, c.off); err != nil {
		return nil, fmt.Errorf("registry: change log read: %w", err)
	}
	var out []Change
	pos := 0
	for pos < len(buf) {
		// Frame: magic(4) | payload len (uint32 LE) | payload | crc32(payload).
		// A torn header still starts with (a prefix of) the magic.
		if head := buf[pos:min(pos+4, len(buf))]; !bytes.Equal(head, walMagic[:len(head)]) {
			return out, fmt.Errorf("registry: change log: bad frame magic at offset %d", c.off+int64(pos))
		}
		if len(buf)-pos < 8 {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(buf[pos+4 : pos+8]))
		if n <= 0 || n > 1<<20 {
			return out, fmt.Errorf("registry: change log: implausible frame length %d at offset %d", n, c.off+int64(pos))
		}
		if len(buf)-pos < 8+n+4 {
			break // torn payload: the writer is mid-append
		}
		payload := buf[pos+8 : pos+8+n]
		want := binary.LittleEndian.Uint32(buf[pos+8+n : pos+8+n+4])
		if got := crc32.ChecksumIEEE(payload); got != want {
			return out, fmt.Errorf("registry: change log: frame CRC %08x != %08x at offset %d", got, want, c.off+int64(pos))
		}
		var ch Change
		if err := json.Unmarshal(payload, &ch); err != nil {
			return out, fmt.Errorf("registry: change log: frame decode at offset %d: %w", c.off+int64(pos), err)
		}
		pos += 8 + n + 4
		c.off += int64(8 + n + 4)
		if ch.Seq > c.lastSeq {
			c.lastSeq = ch.Seq
		}
		out = append(out, ch)
	}
	return out, nil
}

// Append writes one record with the next sequence number and fsyncs it.
// The caller must hold the registry write lease: Append first tails the
// log to pick up sequence numbers from other (lease-serialized) writers,
// then writes its frame at the end. The appended record — Seq and UnixMs
// filled in — is returned. Records appended by this handle are consumed
// locally (a later Tail does not return them): the writer already applied
// the mutation it is logging.
func (c *ChangeLog) Append(ch Change) (Change, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.tailLocked(); err != nil {
		// Unparseable bytes at the write offset. The lease serializes
		// writers, so nothing another live writer needs can sit past the
		// consumed frames: the damage is a dead tail (a crashed writer's
		// leftovers). Reclaim it rather than wedging every future append.
		if !DebugSkipTailReclaim {
			if terr := c.truncateTailLocked(); terr != nil {
				return Change{}, terr
			}
		}
	}
	// A torn final frame (a writer crashed mid-append) also leaves bytes
	// past the read position. Overwriting it in place would be wrong: a
	// replacement frame shorter than the torn one leaves mid-frame garbage
	// after it, poisoning every later read. Drop the tail first.
	if !DebugSkipTailReclaim {
		if err := c.truncateTailLocked(); err != nil {
			return Change{}, err
		}
	}
	ch.Seq = c.lastSeq + 1
	ch.UnixMs = time.Now().UnixMilli()
	payload, err := json.Marshal(ch)
	if err != nil {
		return Change{}, err
	}
	frame := make([]byte, 0, 8+len(payload)+4)
	frame = append(frame, walMagic[:]...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := c.f.WriteAt(frame, c.off); err != nil {
		// A short write (ENOSPC mid-frame) left a torn frame at the tail.
		// Reclaim it NOW, not on the next append: until then every reader
		// would sit behind a tail that no live writer is ever going to
		// finish, and a crash would hand the garbage to recovery. After
		// the truncate the log is exactly as before this call, so the
		// typed error tells the caller a retry is safe.
		if terr := c.truncateTailLocked(); terr != nil {
			return Change{}, fmt.Errorf("registry: change log append: %w (and tail reclaim failed: %w)", err, terr)
		}
		return Change{}, fmt.Errorf("registry: change log append: %w: %w", ErrShortAppend, err)
	}
	if err := c.f.Sync(); err != nil {
		// The frame may or may not have reached the platter; drop it from
		// the file so the in-memory offset and the disk agree, and report
		// retryable.
		if terr := c.truncateTailLocked(); terr != nil {
			return Change{}, fmt.Errorf("registry: change log sync: %w (and tail reclaim failed: %w)", err, terr)
		}
		return Change{}, fmt.Errorf("registry: change log sync: %w: %w", ErrShortAppend, err)
	}
	c.off += int64(len(frame))
	c.lastSeq = ch.Seq
	return ch, nil
}

// truncateTailLocked discards everything after the read position — torn
// or garbage bytes a crashed writer left behind. Only the lease holder
// (Append) calls it: readers must keep stopping in front of a torn frame
// and wait for its writer, never destroy it. Callers hold c.mu.
func (c *ChangeLog) truncateTailLocked() error {
	st, err := c.f.Stat()
	if err != nil {
		return fmt.Errorf("registry: change log: %w", err)
	}
	if st.Size() <= c.off {
		return nil
	}
	if err := c.f.Truncate(c.off); err != nil {
		return fmt.Errorf("registry: change log truncate: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("registry: change log sync: %w", err)
	}
	return nil
}
