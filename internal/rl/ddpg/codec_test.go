package ddpg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cdbtune/internal/nn"
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

// sameState reports whether two network states hold bit-identical values.
func sameState(a, b *nn.NetworkState) bool {
	return sameBits(&WeightSnapshot{nets: []*nn.NetworkState{a}}, &WeightSnapshot{nets: []*nn.NetworkState{b}})
}

// policyOf is the snapshot of s's policy alone — actor, critic and
// best-action target — whose Save writes the layout Agent.Save does.
func policyOf(s *WeightSnapshot) *WeightSnapshot {
	return &WeightSnapshot{nets: []*nn.NetworkState{s.nets[0], s.nets[2]}, bcTarget: s.bcTarget}
}

// withOnlineTargets is s with each target network replaced by its online
// network: the four-network image of Algorithm 1's initial targets.
func withOnlineTargets(s *WeightSnapshot) *WeightSnapshot {
	return &WeightSnapshot{nets: []*nn.NetworkState{s.nets[0], s.nets[0], s.nets[2], s.nets[2]}, bcTarget: s.bcTarget}
}

// encode returns what save writes.
func encode(t testing.TB, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveLoadBitExact: every actor and critic weight, BatchNorm statistic
// and best-action value survives Save → Load bit for bit (what gob gave),
// through both writers of the policy layout; the file is 8 bytes a value
// of the two networks plus framing, and the loaded targets start as the
// online networks.
func TestSaveLoadBitExact(t *testing.T) {
	src := trainedAgent(t)
	// Values a lossy float path would normalize: −0 and a denormal.
	w := src.actor.Params()[0].Value.Data
	w[0], w[1] = math.Copysign(0, -1), math.Float64frombits(1)
	want := src.Snapshot()

	fromAgent := encode(t, src.Save)
	if !bytes.Equal(fromAgent, encode(t, policyOf(want).Save)) {
		t.Fatal("Agent.Save and WeightSnapshot.Save wrote different bytes for the same policy")
	}
	var values, tensors int
	for _, st := range policyOf(want).nets {
		for _, ts := range st.Tensors() {
			values, tensors = values+len(ts), tensors+1
		}
	}
	values, tensors = values+len(want.bcTarget), tensors+1
	if got := len(fromAgent); got != 12+4*tensors+8*values {
		t.Fatalf("model is %d bytes for %d values in %d tensors", got, values, tensors)
	}

	dst := New(src.Config())
	if err := dst.Load(bytes.NewReader(fromAgent)); err != nil {
		t.Fatal(err)
	}
	if !sameBits(dst.Snapshot(), withOnlineTargets(want)) {
		t.Fatal("loaded policy is not bit-identical to the saved one, or its targets are not the online networks")
	}
}

// TestFourNetworkImageLoads: the image a checkpoint holds — and every model
// written before Save dropped the targets — loads bit for bit, targets
// included, to the same online weights as the policy image of the same
// agent.
func TestFourNetworkImageLoads(t *testing.T) {
	src := trainedAgent(t)
	want := src.Snapshot()
	if sameState(want.nets[0], want.nets[1]) || sameState(want.nets[2], want.nets[3]) {
		t.Fatal("fixture's targets equal its online networks: the test could not tell the layouts apart")
	}
	four, policy := New(src.Config()), New(src.Config())
	if err := four.Load(bytes.NewReader(encode(t, want.Save))); err != nil {
		t.Fatal(err)
	}
	if err := policy.Load(bytes.NewReader(encode(t, src.Save))); err != nil {
		t.Fatal(err)
	}
	if !sameBits(four.Snapshot(), want) {
		t.Fatal("a four-network image did not load bit for bit")
	}
	if !sameBits(policyOf(four.Snapshot()), policyOf(policy.Snapshot())) {
		t.Fatal("the two layouts of one agent loaded different online weights")
	}
}

// TestPolicyLoadTrainsLikeOnlineTargets: after a policy Load, the first
// update is bit-identical to that of an agent whose four-network image
// carried targets equal to its online networks.
func TestPolicyLoadTrainsLikeOnlineTargets(t *testing.T) {
	src := trainedAgent(t)
	snap := src.Snapshot()
	viaPolicy, viaFour := New(src.Config()), New(src.Config())
	if err := viaPolicy.Load(bytes.NewReader(encode(t, src.Save))); err != nil {
		t.Fatal(err)
	}
	if err := viaFour.Load(bytes.NewReader(encode(t, withOnlineTargets(snap).Save))); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Agent{viaPolicy, viaFour} {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 16; i++ {
			a.Observe(rl.Transition{
				State:     randUnitSlice(rng, a.cfg.StateDim),
				Action:    randUnitSlice(rng, a.cfg.ActionDim),
				Reward:    rng.NormFloat64(),
				NextState: randUnitSlice(rng, a.cfg.StateDim),
			})
		}
	}
	p, pok := viaPolicy.TrainStepInfo()
	f, fok := viaFour.TrainStepInfo()
	if !pok || !fok || p != f {
		t.Fatalf("first update after a policy Load %+v (ok %v), after the four-network image %+v (ok %v)", p, pok, f, fok)
	}
	if !sameBits(viaPolicy.Snapshot(), viaFour.Snapshot()) {
		t.Fatal("the first update left different weights")
	}
	if sameBits(viaPolicy.Snapshot(), withOnlineTargets(snap)) {
		t.Fatal("the update moved nothing: the test compared two untrained agents")
	}
}

// TestLoadRejectsCountOfNeitherLayout: a tensor count one off either
// layout, with or without the best-action target, is an error that names
// the counts, and the agent — a pending one too — is left untouched.
func TestLoadRejectsCountOfNeitherLayout(t *testing.T) {
	src := trainedAgent(t)
	four, err := nn.ReadTensors(bytes.NewReader(encode(t, src.Snapshot().Save)))
	if err != nil {
		t.Fatal(err)
	}
	p := (len(four) - 1) / 2 // the image carries a best-action target
	extra := append(append([][]float64(nil), four...), four[0])
	dst := New(src.Config())
	for _, n := range []int{p - 1, p + 2, 2*p - 1, 2*p + 2} {
		pending := New(src.Config())
		before := dst.Snapshot()
		model := encode(t, func(w io.Writer) error { return nn.WriteTensors(w, extra[:n]) })
		for _, a := range []*Agent{dst, pending} {
			err := a.Load(bytes.NewReader(model))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d tensors", n)) {
				t.Fatalf("%d tensors (policy %d): got error %v, want one naming the count", n, p, err)
			}
		}
		if !sameBits(dst.Snapshot(), before) {
			t.Fatalf("rejected %d-tensor model modified the agent", n)
		}
		if !pending.pending {
			t.Fatalf("rejected %d-tensor model settled a pending init", n)
		}
	}
}

// TestSetWeightsKeepsMomentsRestoreResetsThem pins the split the two
// callers rely on: core's best-policy restore (SetWeights) behaves exactly
// like Load of the same four-network image — Adam moments survive, so the
// next update is the one a round trip through the codec would have
// produced — while the supervisor's divergence rollback (Restore) clears
// them, so its next update differs.
func TestSetWeightsKeepsMomentsRestoreResetsThem(t *testing.T) {
	viaLoad, viaSet, viaRestore := trainedAgent(t), trainedAgent(t), trainedAgent(t)
	snap := viaLoad.Snapshot()
	if !sameBits(snap, viaSet.Snapshot()) || !sameBits(snap, viaRestore.Snapshot()) {
		t.Fatal("twin agents diverged before the test began")
	}
	if err := viaLoad.Load(bytes.NewReader(encode(t, snap.Save))); err != nil {
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
	good := encode(f, src.Save)
	f.Add(good)
	// The four-network image, and tensor lists one tensor short of and one
	// past each layout (both images carry the best-action target).
	four := encode(f, src.Snapshot().Save)
	f.Add(four)
	for _, model := range [][]byte{good, four} {
		ts, err := nn.ReadTensors(bytes.NewReader(model))
		if err != nil {
			f.Fatal(err)
		}
		for _, off := range [][][]float64{ts[:len(ts)-2], append(ts, ts[0])} {
			f.Add(encode(f, func(w io.Writer) error { return nn.WriteTensors(w, off) }))
		}
	}
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
			// A policy re-encodes through Agent.Save, a four-network image
			// through its Snapshot.
			if !bytes.Equal(encode(t, dst.Save), data) && !bytes.Equal(encode(t, dst.Snapshot().Save), data) {
				t.Fatal("accepted model does not re-encode to its own bytes")
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
