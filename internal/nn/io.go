package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"path/filepath"

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

// NetworkState is a deep copy of everything Save persists for a Network:
// parameter tensors in layer order plus BatchNorm running statistics. It
// doubles as the in-memory snapshot format the learner-health supervisor
// rolls back to, so capturing and restoring it must stay cheap (no
// encoding, just copies).
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
// modifying anything. SetState performs the same checks; callers that must
// apply several states atomically check them all first.
func (n *Network) CheckState(st *NetworkState) error {
	ps := n.Params()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("nn: state has %d params, network has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		if len(st.Params[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: param %d has %d values, want %d", i, len(st.Params[i]), len(p.Value.Data))
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

// SetState restores a state captured from an identically-shaped network
// (via State or ReadState), validating shapes before touching anything.
func (n *Network) SetState(st *NetworkState) error {
	if err := n.CheckState(st); err != nil {
		return err
	}
	for i, p := range n.Params() {
		copy(p.Value.Data, st.Params[i])
	}
	var bi int
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			copy(bn.RunningMean, st.RunningMeans[bi])
			copy(bn.RunningVar, st.RunningVars[bi])
			bi++
		}
	}
	return nil
}

// Finite returns a descriptive error if any parameter value or BatchNorm
// running statistic in the state is NaN or infinite — the validation gate
// that keeps a corrupt serialized model from being silently loaded.
func (st *NetworkState) Finite() error {
	for i, p := range st.Params {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: param %d contains non-finite value %v", i, v)
			}
		}
	}
	for i, m := range st.RunningMeans {
		for _, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: BatchNorm %d running mean contains non-finite value %v", i, v)
			}
		}
	}
	for i, m := range st.RunningVars {
		for _, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: BatchNorm %d running variance contains non-finite value %v", i, v)
			}
		}
	}
	return nil
}

// ReadState decodes one serialized NetworkState from r without applying it
// to any network, so callers can validate (CheckState, Finite) before
// mutating weights.
func ReadState(r io.Reader) (*NetworkState, error) {
	var st NetworkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode network state: %w", err)
	}
	return &st, nil
}

// Save writes the network's parameters and normalization statistics to w
// in gob format. The architecture itself is not serialized: Load must be
// called on a network built with the same layer structure.
func (n *Network) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(n.State())
}

// Load restores parameters previously written by Save into a network with
// an identical architecture.
func (n *Network) Load(r io.Reader) error {
	st, err := ReadState(r)
	if err != nil {
		return err
	}
	return n.SetState(st)
}
