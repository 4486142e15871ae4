package ddpg

import (
	"bytes"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

// TestLoadBeforeFirstUseMatchesLoadAfterInit pins deferred init to the
// bits of the eager one: an agent whose first event is Load (init skipped,
// its draws discarded, the decoded tensors adopted) and an agent that ran
// its random init and then loaded the same model must act, train, save
// and draw identically from then on.
func TestLoadBeforeFirstUseMatchesLoadAfterInit(t *testing.T) {
	var model bytes.Buffer
	if err := trainedAgent(t).Save(&model); err != nil {
		t.Fatal(err)
	}
	cfg := loadTestConfig()
	cfg.BatchSize, cfg.MinMemory = 8, 8
	cfg.ActionBias = []float64{0.2, 0.4, 0.6, 0.8}
	pending, eager := New(cfg), New(cfg)
	eager.ensureInit()
	for _, a := range []*Agent{pending, eager} {
		if err := a.Load(bytes.NewReader(model.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if pending.pending {
		t.Fatal("Load left the init pending")
	}

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		tr := rl.Transition{
			State:     randUnitSlice(rng, cfg.StateDim),
			Action:    randUnitSlice(rng, cfg.ActionDim),
			Reward:    rng.NormFloat64(),
			NextState: randUnitSlice(rng, cfg.StateDim),
		}
		pending.Observe(tr)
		eager.Observe(tr)
		if i%8 == 0 {
			p, e := pending.ActNoisy(tr.State, pending.Noise), eager.ActNoisy(tr.State, eager.Noise)
			for j := range p {
				if p[j] != e[j] {
					t.Fatalf("ActNoisy %d differs at %d: %v vs %v", i, j, p[j], e[j])
				}
			}
		}
	}
	for i := 0; i < 20; i++ {
		p, pok := pending.TrainStepInfo()
		e, eok := eager.TrainStepInfo()
		if !pok || !eok || p != e {
			t.Fatalf("update %d: %+v (ok %v) vs %+v (ok %v)", i, p, pok, e, eok)
		}
	}
	var pb, eb bytes.Buffer
	if err := pending.Save(&pb); err != nil {
		t.Fatal(err)
	}
	if err := eager.Save(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), eb.Bytes()) {
		t.Fatal("saved models differ")
	}
	if p, e := pending.rng.Int63(), eager.rng.Int63(); p != e {
		t.Fatalf("next rng draw %d vs %d", p, e)
	}
}

// TestSnapshotSharesUntilWritten: a snapshot of weights nothing has
// written since the last snapshot or SetWeights shares its tensors, a
// verified one stays verified, SetWeights of that state is a no-op, and
// the first update copies the weights out before writing them.
func TestSnapshotSharesUntilWritten(t *testing.T) {
	src := trainedAgent(t)
	var model bytes.Buffer
	if err := src.Save(&model); err != nil {
		t.Fatal(err)
	}
	a := New(src.Config())
	entry, err := a.ReadSnapshot(bytes.NewReader(model.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetWeights(entry); err != nil {
		t.Fatal(err)
	}
	s1, s2 := a.Snapshot(), a.Snapshot()
	for i := range entry.nets {
		if s1.nets[i] != entry.nets[i] || s2.nets[i] != entry.nets[i] {
			t.Fatal("a snapshot of unchanged weights copied them")
		}
	}
	if !s1.netsFinite {
		t.Fatal("a snapshot sharing a verified state lost the verification")
	}
	if &s1.bcTarget[0] == &a.bcTarget[0] {
		t.Fatal("the best-action target must be copied: SetBCTarget changes it on its own")
	}
	if err := a.SetWeights(s2); err != nil || !a.equals(entry) {
		t.Fatalf("SetWeights of the state the weights equal moved them (err %v)", err)
	}

	want := append([]float64(nil), entry.nets[2].Params[0]...)
	for i := 0; i < 32; i++ {
		a.Observe(rl.Transition{
			State: make([]float64, 8), Action: make([]float64, 4), NextState: make([]float64, 8), Reward: 1,
		})
	}
	if _, ok := a.TrainStepInfo(); !ok {
		t.Fatal("train step refused")
	}
	for j, v := range entry.nets[2].Params[0] {
		if v != want[j] {
			t.Fatal("an update wrote into the adopted snapshot")
		}
	}
	if s3 := a.Snapshot(); s3.nets[2] == entry.nets[2] || s3.netsFinite {
		t.Fatal("a snapshot after an update must copy the new weights and verify nothing")
	}
}
