package ddpg

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cdbtune/internal/rl"
)

// sameBits reports whether two snapshots hold bit-identical weights,
// statistics and best-action target.
func sameBits(a, b *WeightSnapshot) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if len(a.nets) != len(b.nets) || !eq(a.bcTarget, b.bcTarget) {
		return false
	}
	for i := range a.nets {
		at, bt := a.nets[i].Tensors(), b.nets[i].Tensors()
		if len(at) != len(bt) {
			return false
		}
		for j := range at {
			if !eq(at[j], bt[j]) {
				return false
			}
		}
	}
	return true
}

// trainedAgent is loadTestConfig's agent after a few gradient updates, so
// its weights, BatchNorm statistics and Adam moments are all off their
// initial values. Two calls build bit-identical agents.
func trainedAgent(t testing.TB) *Agent {
	cfg := loadTestConfig()
	cfg.BatchSize, cfg.MinMemory = 8, 8
	a := New(cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		a.Observe(rl.Transition{
			State:     randUnitSlice(rng, cfg.StateDim),
			Action:    randUnitSlice(rng, cfg.ActionDim),
			Reward:    rng.NormFloat64(),
			NextState: randUnitSlice(rng, cfg.StateDim),
		})
	}
	a.SetBCTarget(randUnitSlice(rng, cfg.ActionDim))
	for i := 0; i < 6; i++ {
		if _, ok := a.TrainStepInfo(); !ok {
			t.Fatal("train step refused to run")
		}
	}
	return a
}

// TestSaveLoadBitExact: every weight, BatchNorm statistic and best-action
// value survives Save → Load bit for bit (what gob gave), through both
// writers of the format, and the file is 8 bytes a value plus framing.
func TestSaveLoadBitExact(t *testing.T) {
	src := trainedAgent(t)
	// Values a lossy float path would normalize: −0 and a denormal.
	w := src.actor.Params()[0].Value.Data
	w[0], w[1] = math.Copysign(0, -1), math.Float64frombits(1)
	want := src.Snapshot()

	var fromAgent, fromSnap bytes.Buffer
	if err := src.Save(&fromAgent); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&fromSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromAgent.Bytes(), fromSnap.Bytes()) {
		t.Fatal("Agent.Save and WeightSnapshot.Save wrote different bytes for the same weights")
	}
	var values, tensors int
	for _, st := range want.nets {
		for _, ts := range st.Tensors() {
			values, tensors = values+len(ts), tensors+1
		}
	}
	values, tensors = values+len(want.bcTarget), tensors+1
	if got := fromAgent.Len(); got != 12+4*tensors+8*values {
		t.Fatalf("model is %d bytes for %d values in %d tensors", got, values, tensors)
	}

	dst := New(src.Config())
	if err := dst.Load(bytes.NewReader(fromAgent.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !sameBits(dst.Snapshot(), want) {
		t.Fatal("loaded weights are not bit-identical to the saved ones")
	}
}

// TestSetWeightsKeepsMomentsRestoreResetsThem pins the split the two
// callers rely on: core's best-policy restore (SetWeights) behaves exactly
// like Load — Adam moments survive, so the next update is the one a
// Save/Load round trip would have produced — while the supervisor's
// divergence rollback (Restore) clears them, so its next update differs.
func TestSetWeightsKeepsMomentsRestoreResetsThem(t *testing.T) {
	viaLoad, viaSet, viaRestore := trainedAgent(t), trainedAgent(t), trainedAgent(t)
	snap := viaLoad.Snapshot()
	if !sameBits(snap, viaSet.Snapshot()) || !sameBits(snap, viaRestore.Snapshot()) {
		t.Fatal("twin agents diverged before the test began")
	}
	var buf bytes.Buffer
	if err := viaLoad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := viaLoad.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if err := viaSet.SetWeights(snap); err != nil {
		t.Fatal(err)
	}
	if err := viaRestore.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Agent{viaLoad, viaSet, viaRestore} {
		if !sameBits(a.Snapshot(), snap) {
			t.Fatal("putting an agent's own snapshot back changed its weights")
		}
		for i := 0; i < 2; i++ { // PolicyDelay 2: the second step moves the actor too
			if _, ok := a.TrainStepInfo(); !ok {
				t.Fatal("train step refused to run")
			}
		}
	}
	if !sameBits(viaSet.Snapshot(), viaLoad.Snapshot()) {
		t.Fatal("SetWeights changed what the next update does: it must keep the Adam moments, like Load")
	}
	if sameBits(viaRestore.Snapshot(), viaLoad.Snapshot()) {
		t.Fatal("Restore left the Adam moments in place: the next update matched the un-reset agent's")
	}
}

// FuzzAgentLoad feeds Load arbitrary bytes: it must never panic, never
// allocate more than a small multiple of the input, and leave the agent's
// weights untouched whenever it returns an error.
func FuzzAgentLoad(f *testing.F) {
	src := trainedAgent(f)
	var model bytes.Buffer
	if err := src.Save(&model); err != nil {
		f.Fatal(err)
	}
	good := model.Bytes()
	f.Add(good)
	for _, n := range []int{0, 3, 11, 12, 16, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	// Bit-flips in the header, the tensor count and the first few length
	// fields (tensor 0 starts right after the 12-byte header).
	lengthAt := []int{4, 8, 12}
	off := 12
	for i := 0; i < 3; i++ {
		off += 4 + 8*int(binary.LittleEndian.Uint32(good[off:]))
		lengthAt = append(lengthAt, off)
	}
	for _, at := range lengthAt {
		for _, bit := range []uint{0, 7, 31} {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])^1<<bit)
			f.Add(b)
		}
	}
	f.Add(append(append([]byte(nil), good...), 0))

	dst := New(src.Config())
	pending := New(src.Config())
	f.Fuzz(func(t *testing.T, data []byte) {
		before := dst.Snapshot()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := dst.Load(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		// The copy of the input, its float64s, one slice header per
		// declared tensor (≤ one per 4 input bytes), and slack for errors.
		if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(data)+64<<10); grew > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil && !sameBits(dst.Snapshot(), before) {
			t.Fatalf("failed Load (%v) modified the agent", err)
		}
		if err == nil {
			var again bytes.Buffer
			if serr := dst.Save(&again); serr != nil || !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("accepted model does not re-encode to its own bytes (save error: %v)", serr)
			}
		}
		// The same bytes into an agent whose random init is still pending.
		// A rejected model must leave it pending — no weight written, no
		// init draw taken — because the server's scratch fallback trains
		// that same agent.
		if perr := pending.Load(bytes.NewReader(data)); (perr == nil) != (err == nil) {
			t.Fatalf("Load into a pending agent: %v, into an initialized one: %v", perr, err)
		}
		if err != nil {
			if !pending.pending || pending.actor.Params()[0].Value.Data != nil {
				t.Fatalf("failed Load (%v) settled the pending init", err)
			}
		} else {
			pending = New(src.Config())
		}
	})
}
