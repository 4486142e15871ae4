package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"

	"cdbtune/internal/vfs"
)

// WriteAtomic writes a file by streaming into a temp file in the target's
// directory, syncing it, renaming over the destination, and fsyncing the
// containing directory — a crash or write error never leaves a truncated
// file at path, and a crash right after the rename cannot lose the rename
// itself (the directory entry is durable before WriteAtomic returns). The
// temp file is removed on failure. It writes through the production
// filesystem; WriteAtomicFS is the same helper over an explicit vfs.FS
// (fault injection, crash-consistency exploration).
func WriteAtomic(path string, write func(io.Writer) error) error {
	return WriteAtomicFS(vfs.OS, path, write)
}

// WriteAtomicFS is WriteAtomic over an explicit filesystem. On failure —
// including an injected ENOSPC/EIO mid-stream — the temp file is removed
// and the destination untouched, so a retry after the condition clears
// is always safe.
func WriteAtomicFS(fsys vfs.FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// NetworkState is everything Save persists for a Network: parameter
// tensors in layer order plus BatchNorm running statistics. It doubles as
// the in-memory snapshot format the learner-health supervisor rolls back
// to, so capturing and restoring it must stay cheap: State copies, and
// Adopt restores without even that.
type NetworkState struct {
	Params       [][]float64
	RunningMeans [][]float64
	RunningVars  [][]float64
}

// State captures the network's current parameters and BatchNorm running
// statistics as an independent copy.
func (n *Network) State() *NetworkState {
	st := &NetworkState{}
	for _, p := range n.Params() {
		st.Params = append(st.Params, append([]float64(nil), p.Value.Data...))
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			st.RunningMeans = append(st.RunningMeans, append([]float64(nil), bn.RunningMean...))
			st.RunningVars = append(st.RunningVars, append([]float64(nil), bn.RunningVar...))
		}
	}
	return st
}

// CheckState verifies that st is shape-compatible with the network —
// parameter count, per-parameter length, and BatchNorm statistics — without
// modifying anything. Adopt performs the same checks; callers that must
// apply several states atomically check them all first.
func (n *Network) CheckState(st *NetworkState) error {
	ps := n.Params()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("nn: state has %d params, network has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		if want := p.Value.Rows * p.Value.Cols; len(st.Params[i]) != want {
			return fmt.Errorf("nn: param %d has %d values, want %d", i, len(st.Params[i]), want)
		}
	}
	var bi int
	for _, l := range n.Layers {
		bn, ok := l.(*BatchNorm)
		if !ok {
			continue
		}
		if bi >= len(st.RunningMeans) || bi >= len(st.RunningVars) {
			return fmt.Errorf("nn: state missing running stats for BatchNorm %d", bi)
		}
		if len(st.RunningMeans[bi]) != bn.Dim || len(st.RunningVars[bi]) != bn.Dim {
			return fmt.Errorf("nn: BatchNorm %d stats dim %d, want %d", bi, len(st.RunningMeans[bi]), bn.Dim)
		}
		bi++
	}
	return nil
}

// Adopt makes the tensors of st — captured from an identically-shaped
// network by State or TakeState — the network's live parameters and
// BatchNorm statistics, without copying them, after validating shapes
// before touching anything. The network then only reads st: Own must run
// before an optimizer sweep or a training-mode Forward (its running
// statistics) writes the values — CopyTo and the Init methods run it
// themselves — and whoever else holds st must not write it either.
func (n *Network) Adopt(st *NetworkState) error {
	if err := n.CheckState(st); err != nil {
		return err
	}
	for i, p := range n.Params() {
		p.Value.Data = st.Params[i]
	}
	var bi int
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bn.RunningMean, bn.RunningVar = st.RunningMeans[bi], st.RunningVars[bi]
			bi++
		}
	}
	n.adopted = true
	return nil
}

// Own gives a network that adopted a state private copies of its values,
// leaving the state as it was; any other network it leaves alone. It is
// the copy-on-write half of Adopt.
func (n *Network) Own() {
	if !n.adopted {
		return
	}
	n.adopted = false
	for _, p := range n.Params() {
		p.Value.Data = slices.Clone(p.Value.Data)
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bn.RunningMean, bn.RunningVar = slices.Clone(bn.RunningMean), slices.Clone(bn.RunningVar)
		}
	}
}

// Finite returns a descriptive error if any parameter value or BatchNorm
// running statistic in the state is NaN or infinite — the validation gate
// that keeps a corrupt serialized model from being silently loaded.
func (st *NetworkState) Finite() error {
	for i, p := range st.Params {
		if j := firstNonFinite(p); j >= 0 {
			return fmt.Errorf("nn: param %d contains non-finite value %v", i, p[j])
		}
	}
	for i, m := range st.RunningMeans {
		if j := firstNonFinite(m); j >= 0 {
			return fmt.Errorf("nn: BatchNorm %d running mean contains non-finite value %v", i, m[j])
		}
	}
	for i, m := range st.RunningVars {
		if j := firstNonFinite(m); j >= 0 {
			return fmt.Errorf("nn: BatchNorm %d running variance contains non-finite value %v", i, m[j])
		}
	}
	return nil
}

// firstNonFinite returns the index of the first NaN or ±Inf in xs, or -1.
// x−x is 0 exactly for finite x (NaN for the rest): one subtraction a
// value instead of three comparisons, on a loop that runs over every
// weight of every loaded model.
func firstNonFinite(xs []float64) int {
	for i, x := range xs {
		if x-x != 0 {
			return i
		}
	}
	return -1
}

// Tensors lists the network's live state in serialized order: parameter
// tensors in layer order, then every BatchNorm's running mean, then every
// BatchNorm's running variance. The slices alias the network — they are
// for encoding, not for keeping; State is the independent copy.
func (n *Network) Tensors() [][]float64 {
	var ts, vars [][]float64
	for _, p := range n.Params() {
		ts = append(ts, p.Value.Data)
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			ts = append(ts, bn.RunningMean)
			vars = append(vars, bn.RunningVar)
		}
	}
	return append(ts, vars...)
}

// Tensors lists the state's tensors in the same order as Network.Tensors.
func (st *NetworkState) Tensors() [][]float64 {
	ts := append([][]float64(nil), st.Params...)
	ts = append(ts, st.RunningMeans...)
	return append(ts, st.RunningVars...)
}

// TakeState splits this network's share off the front of a decoded tensor
// list (the inverse of Tensors) and returns it with the remainder. Only
// the tensor count is checked here; CheckState validates the shapes. The
// state aliases ts.
func (n *Network) TakeState(ts [][]float64) (*NetworkState, [][]float64, error) {
	np, nb := len(n.Params()), 0
	for _, l := range n.Layers {
		if _, ok := l.(*BatchNorm); ok {
			nb++
		}
	}
	if len(ts) < np+2*nb {
		return nil, nil, fmt.Errorf("nn: state has %d tensors, network has %d", len(ts), np+2*nb)
	}
	st := &NetworkState{Params: ts[:np], RunningMeans: ts[np : np+nb], RunningVars: ts[np+nb : np+2*nb]}
	return st, ts[np+2*nb:], nil
}

// The model format is a flat list of float64 tensors, all integers
// little-endian:
//
//	"CDBM" | u32 version | u32 N | N × ( u32 len | len × IEEE-754 bits )
//
// What the tensors mean is the writer's business (Network.Tensors order
// for a network; a ddpg policy or four-network image, see the ddpg package
// doc). Values round-trip bit-exactly.
const (
	tensorMagic   = "CDBM"
	tensorVersion = 1
	tensorHeader  = len(tensorMagic) + 4 + 4
)

// WriteTensors encodes tensors into one pre-sized buffer and hands it to w
// in a single Write.
func WriteTensors(w io.Writer, tensors [][]float64) error {
	size := tensorHeader
	for _, t := range tensors {
		size += 4 + 8*len(t)
	}
	var buf []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		// Encode straight into the buffer's own spare capacity (the
		// AvailableBuffer idiom): the Write below then copies nothing.
		bb.Grow(size)
		buf = bb.AvailableBuffer()
	} else {
		buf = make([]byte, 0, size)
	}
	buf = append(buf, tensorMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, tensorVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tensors)))
	for _, t := range tensors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t)))
		for _, v := range t {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadTensors decodes a tensor list written by WriteTensors, consuming r
// to EOF. The bytes are untrusted: every declared count and length is
// bounded by the bytes actually remaining before anything is allocated, so
// a corrupt length field costs an error, never memory. Trailing bytes are
// an error too.
//
// A reader that knows what it has left (bytes.Reader, bytes.Buffer — every
// in-memory model) is decoded as a stream through a small chunk buffer;
// anything else is read to EOF first, so that "remaining" is always known.
func ReadTensors(r io.Reader) ([][]float64, error) {
	src, ok := r.(interface {
		io.Reader
		Len() int
	})
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("nn: read model: %w", err)
		}
		src = bytes.NewReader(data)
	}
	chunk := make([]byte, 32<<10)
	head := chunk[:tensorHeader]
	if _, err := io.ReadFull(src, head); err != nil || string(head[:len(tensorMagic)]) != tensorMagic {
		return nil, errors.New("nn: not a model file (bad magic; truncated, or written by an older version)")
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != tensorVersion {
		return nil, fmt.Errorf("nn: model format version %d, want %d", v, tensorVersion)
	}
	n := int(binary.LittleEndian.Uint32(head[8:]))
	if n > src.Len()/4 {
		return nil, fmt.Errorf("nn: model declares %d tensors in %d bytes", n, src.Len())
	}
	// One backing array for every tensor: the payload is at most Len/8
	// values however the lengths are declared.
	backing := make([]float64, src.Len()/8)
	tensors := make([][]float64, n)
	for i := range tensors {
		if _, err := io.ReadFull(src, chunk[:4]); err != nil {
			return nil, fmt.Errorf("nn: model truncated at tensor %d of %d", i, n)
		}
		l := int(binary.LittleEndian.Uint32(chunk))
		if l > src.Len()/8 {
			return nil, fmt.Errorf("nn: tensor %d declares %d values in %d bytes", i, l, src.Len())
		}
		tensors[i], backing = backing[:l:l], backing[l:]
		for t := tensors[i]; len(t) > 0; {
			c := chunk[:min(len(chunk), 8*len(t))]
			if _, err := io.ReadFull(src, c); err != nil {
				return nil, fmt.Errorf("nn: read model: %w", err)
			}
			for k := range t[:len(c)/8] {
				t[k] = math.Float64frombits(binary.LittleEndian.Uint64(c[8*k : 8*k+8]))
			}
			t = t[len(c)/8:]
		}
	}
	if src.Len() != 0 {
		return nil, fmt.Errorf("nn: %d trailing bytes after the last tensor", src.Len())
	}
	return tensors, nil
}

// Save writes the network's parameters and normalization statistics to w
// (see WriteTensors for the format). The architecture itself is not
// serialized: Load must be called on a network built with the same layer
// structure.
func (n *Network) Save(w io.Writer) error {
	return WriteTensors(w, n.Tensors())
}

// Load restores parameters previously written by Save into a network with
// an identical architecture, validating shapes before touching anything;
// the decoded tensors become the network's values.
func (n *Network) Load(r io.Reader) error {
	ts, err := ReadTensors(r)
	if err != nil {
		return err
	}
	st, rest, err := n.TakeState(ts)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("nn: state has %d tensors too many for this network", len(rest))
	}
	if err := n.Adopt(st); err != nil {
		return err
	}
	n.adopted = false // the decoded tensors belong to this call alone
	return nil
}
