package ddpg

import (
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

// poisonTestConfig is a small agent sized for the property loop.
func poisonTestConfig() Config {
	cfg := DefaultConfig(8, 4)
	cfg.ActorHidden = []int{16, 16}
	cfg.CriticHidden = []int{32, 16}
	cfg.BatchSize = 16
	cfg.MinMemory = 16
	cfg.MemoryCapacity = 4096
	cfg.Seed = 11
	return cfg
}

// randTransition draws a well-formed transition, then (with the given
// probability) poisons one of its fields with NaN or ±Inf — the shapes a
// broken metrics collector or reward function would produce if the
// environment-side sanitizers were bypassed.
func randTransition(rng *rand.Rand, stateDim, actionDim int, poisonProb float64) (rl.Transition, bool) {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	tr := rl.Transition{
		State:     vec(stateDim),
		Action:    vec(actionDim),
		Reward:    rng.NormFloat64(),
		NextState: vec(stateDim),
		Done:      rng.Intn(10) == 0,
	}
	if rng.Float64() >= poisonProb {
		return tr, false
	}
	bad := math.NaN()
	if rng.Intn(2) == 0 {
		bad = math.Inf(1 - 2*rng.Intn(2))
	}
	switch rng.Intn(4) {
	case 0:
		tr.State[rng.Intn(stateDim)] = bad
	case 1:
		tr.Action[rng.Intn(actionDim)] = bad
	case 2:
		tr.Reward = bad
	default:
		tr.NextState[rng.Intn(stateDim)] = bad
	}
	return tr, true
}

// assertAgentFinite fails the test if any weight or BatchNorm running
// statistic of any of the agent's four networks is non-finite.
func assertAgentFinite(t *testing.T, a *Agent, context string) {
	t.Helper()
	for i, n := range a.networks() {
		if err := n.State().Finite(); err != nil {
			t.Fatalf("%s: %s network poisoned: %v", context, netNames[i], err)
		}
	}
}

// TestPoisonedTransitionsNeverReachWeights is the replay-poison property
// test: transitions carrying NaN/Inf in any field must never propagate
// into network weights or BatchNorm running statistics. Batches containing
// them are discarded (SkippedBatches advances) and clean batches keep
// training.
func TestPoisonedTransitionsNeverReachWeights(t *testing.T) {
	cfg := poisonTestConfig()
	a := New(cfg)
	rng := rand.New(rand.NewSource(23))
	poisoned := 0
	for i := 0; i < 400; i++ {
		tr, bad := randTransition(rng, cfg.StateDim, cfg.ActionDim, 0.05)
		if bad {
			poisoned++
		}
		a.Observe(tr)
		info, ok := a.TrainStepInfo()
		if !ok {
			continue
		}
		if !info.SkippedNonFinite {
			// A batch the agent accepted must have produced finite
			// telemetry across the board.
			for name, v := range map[string]float64{
				"CriticLoss":     info.CriticLoss,
				"CriticGradNorm": info.CriticGradNorm,
				"MeanAbsQ":       info.MeanAbsQ,
				"MaxWeight":      info.MaxWeight,
			} {
				if !finite(v) {
					t.Fatalf("step %d: accepted batch has non-finite %s = %v", i, name, v)
				}
			}
		}
		if i%25 == 0 {
			assertAgentFinite(t, a, "mid-run")
		}
	}
	assertAgentFinite(t, a, "final")
	if poisoned == 0 {
		t.Fatal("property loop drew no poisoned transitions; raise the iteration count")
	}
	if a.SkippedBatches() == 0 {
		t.Errorf("%d poisoned transitions stored but no batch was skipped", poisoned)
	}
	if a.TrainSteps() == 0 {
		t.Error("no clean batch trained — the skip guard is rejecting everything")
	}
}

// TestSkippedBatchLeavesWeightsUntouched pins the stronger invariant the
// property test relies on: a skipped update changes no parameter at all.
func TestSkippedBatchLeavesWeightsUntouched(t *testing.T) {
	cfg := poisonTestConfig()
	a := New(cfg)
	rng := rand.New(rand.NewSource(5))
	// Fill the pool entirely with poisoned rewards so every batch skips.
	for i := 0; i < cfg.MinMemory; i++ {
		tr, _ := randTransition(rng, cfg.StateDim, cfg.ActionDim, 0)
		tr.Reward = math.NaN()
		a.Observe(tr)
	}
	before := a.Snapshot()
	for i := 0; i < 5; i++ {
		info, ok := a.TrainStepInfo()
		if !ok {
			t.Fatal("pool is full; TrainStepInfo must run")
		}
		if !info.SkippedNonFinite {
			t.Fatal("all-NaN rewards must make every batch skip")
		}
	}
	after := a.Snapshot()
	for i := range before.nets {
		for j, p := range before.nets[i].Params {
			for k, v := range p {
				if after.nets[i].Params[j][k] != v {
					t.Fatalf("network %d param %d[%d] changed across skipped updates", i, j, k)
				}
			}
		}
	}
	if a.SkippedBatches() != 5 {
		t.Fatalf("SkippedBatches = %d, want 5", a.SkippedBatches())
	}
}
