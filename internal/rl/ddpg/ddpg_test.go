package ddpg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

func smallConfig(stateDim, actionDim int) Config {
	cfg := DefaultConfig(stateDim, actionDim)
	cfg.ActorHidden = []int{32, 32}
	cfg.CriticHidden = []int{64, 32}
	cfg.BatchSize = 16
	cfg.MinMemory = 32
	cfg.MemoryCapacity = 4096
	return cfg
}

func TestActShapesAndRange(t *testing.T) {
	a := New(smallConfig(6, 4))
	state := []float64{0.1, -0.2, 0.3, 0, 1, -1}
	act := a.Act(state)
	if len(act) != 4 {
		t.Fatalf("action dim = %d, want 4", len(act))
	}
	for _, v := range act {
		if v < 0 || v > 1 {
			t.Fatalf("action %v out of (0,1)", v)
		}
	}
	noisy := a.ActNoisy(state, a.Noise)
	for _, v := range noisy {
		if v < 0 || v > 1 {
			t.Fatalf("noisy action %v out of [0,1]", v)
		}
	}
}

func TestActDeterministic(t *testing.T) {
	a := New(smallConfig(3, 2))
	s := []float64{0.5, -0.5, 0.2}
	x, y := a.Act(s), a.Act(s)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("Act must be deterministic in eval mode")
		}
	}
}

func TestTrainStepRequiresMinMemory(t *testing.T) {
	a := New(smallConfig(3, 2))
	if _, ok := a.TrainStep(); ok {
		t.Fatal("TrainStep should refuse with empty memory")
	}
	for i := 0; i < a.cfg.MinMemory-1; i++ {
		a.Observe(rl.Transition{State: []float64{0, 0, 0}, Action: []float64{0.5, 0.5}, NextState: []float64{0, 0, 0}})
	}
	if _, ok := a.TrainStep(); ok {
		t.Fatal("TrainStep should refuse below MinMemory")
	}
	a.Observe(rl.Transition{State: []float64{0, 0, 0}, Action: []float64{0.5, 0.5}, NextState: []float64{0, 0, 0}})
	if _, ok := a.TrainStep(); !ok {
		t.Fatal("TrainStep should run at MinMemory")
	}
	if a.TrainSteps() != 1 {
		t.Fatalf("TrainSteps = %d, want 1", a.TrainSteps())
	}
}

// TestLearnsBanditTarget trains DDPG on a contextual-bandit environment:
// reward = 1 − |a − g(s)|² for a target g(s) that depends on the state.
// After training, µ(s) must be close to g(s). This exercises the full
// actor-critic loop end to end.
func TestLearnsBanditTarget(t *testing.T) {
	cfg := smallConfig(2, 2)
	cfg.Seed = 9
	cfg.NoiseSigma = 0.3
	a := New(cfg)
	rng := rand.New(rand.NewSource(10))

	g := func(s []float64) []float64 {
		return []float64{0.2 + 0.5*s[0], 0.8 - 0.5*s[1]}
	}
	reward := func(s, act []float64) float64 {
		tgt := g(s)
		var d2 float64
		for i := range act {
			d := act[i] - tgt[i]
			d2 += d * d
		}
		return 1 - d2
	}

	for ep := 0; ep < 1200; ep++ {
		s := []float64{rng.Float64(), rng.Float64()}
		act := a.ActNoisy(s, a.Noise)
		r := reward(s, act)
		a.Observe(rl.Transition{State: s, Action: act, Reward: r, NextState: s, Done: true})
		a.TrainStep()
		a.TrainStep()
		if ep%20 == 0 {
			a.Noise.Decay()
		}
	}

	var sum float64
	const probes = 50
	for i := 0; i < probes; i++ {
		s := []float64{rng.Float64(), rng.Float64()}
		act := a.Act(s)
		tgt := g(s)
		for j := range act {
			sum += math.Abs(act[j] - tgt[j])
		}
	}
	if mean := sum / (2 * probes); mean > 0.2 {
		t.Fatalf("mean policy error %v, want < 0.2", mean)
	}
	// At the center state the policy must be sharp.
	center := a.Act([]float64{0.5, 0.5})
	tgt := g([]float64{0.5, 0.5})
	for j := range center {
		if d := math.Abs(center[j] - tgt[j]); d > 0.15 {
			t.Fatalf("center policy error %v, want < 0.15", d)
		}
	}
}

func TestCriticLossDecreases(t *testing.T) {
	cfg := smallConfig(3, 2)
	cfg.Prioritized = false
	a := New(cfg)
	rng := rand.New(rand.NewSource(11))
	// Fixed-reward environment: critic must learn a constant.
	for i := 0; i < 256; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a.Observe(rl.Transition{State: s, Action: []float64{0.5, 0.5}, Reward: 1, NextState: s, Done: true})
	}
	var first, last float64
	for i := 0; i < 300; i++ {
		loss, ok := a.TrainStep()
		if !ok {
			t.Fatal("TrainStep refused")
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("critic loss did not decrease: first %v last %v", first, last)
	}
	// Q(s, a) should approach 1 for terminal transitions with reward 1.
	q := a.QValue([]float64{0.5, 0.5, 0.5}, []float64{0.5, 0.5})
	if math.Abs(q-1) > 0.3 {
		t.Fatalf("Q = %v, want ≈1", q)
	}
}

func TestDoneMasksBootstrap(t *testing.T) {
	cfg := smallConfig(2, 1)
	cfg.Prioritized = false
	cfg.Gamma = 0.99
	a := New(cfg)
	// All transitions terminal with reward 2: Q must converge to 2, not
	// 2/(1−γ) = 200.
	for i := 0; i < 128; i++ {
		a.Observe(rl.Transition{State: []float64{0, 0}, Action: []float64{0.5}, Reward: 2, NextState: []float64{0, 0}, Done: true})
	}
	for i := 0; i < 400; i++ {
		a.TrainStep()
	}
	q := a.QValue([]float64{0, 0}, []float64{0.5})
	if math.Abs(q-2) > 0.5 {
		t.Fatalf("terminal Q = %v, want ≈2 (done flag ignored?)", q)
	}
}

func TestSaveLoadPreservesPolicy(t *testing.T) {
	cfg := smallConfig(3, 2)
	a := New(cfg)
	// Train a little so weights are non-trivial.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 64; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a.Observe(rl.Transition{State: s, Action: []float64{0.1, 0.9}, Reward: rng.Float64(), NextState: s, Done: true})
	}
	for i := 0; i < 20; i++ {
		a.TrainStep()
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(cfg)
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	s := []float64{0.3, 0.6, 0.9}
	x, y := a.Act(s), b.Act(s)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("policy differs after reload: %v vs %v", x, y)
		}
	}
}

func TestTable5DefaultArchitecture(t *testing.T) {
	cfg := DefaultConfig(63, 266)
	a := New(cfg)
	act := a.Act(make([]float64, 63))
	if len(act) != 266 {
		t.Fatalf("default actor output dim = %d, want 266", len(act))
	}
	// Count parameters: actor first layer must be 63×128.
	p := a.actor.Params()[0]
	if p.Value.Rows != 63 || p.Value.Cols != 128 {
		t.Fatalf("actor first layer %dx%d, want 63x128", p.Value.Rows, p.Value.Cols)
	}
}

func TestPrioritizedAgentUpdatesPriorities(t *testing.T) {
	cfg := smallConfig(2, 1)
	cfg.Prioritized = true
	a := New(cfg)
	pm, ok := a.Memory.(*rl.PrioritizedMemory)
	if !ok {
		t.Fatal("expected prioritized memory")
	}
	for i := 0; i < 64; i++ {
		a.Observe(rl.Transition{State: []float64{0, 0}, Action: []float64{0.5}, Reward: float64(i % 2), NextState: []float64{0, 0}, Done: true})
	}
	before := pm.TotalPriority()
	for i := 0; i < 10; i++ {
		a.TrainStep()
	}
	if pm.TotalPriority() == before {
		t.Fatal("priorities never updated during training")
	}
}
