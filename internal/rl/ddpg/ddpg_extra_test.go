package ddpg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

func TestReflect01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0.5, 0.5},
		{-0.2, 0.2},
		{1.3, 0.7},
		{-1.1, 0.9},
		{2.4, 0.4},
		{0, 0},
		{1, 1},
	}
	for _, tc := range tests {
		if got := reflect01(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("reflect01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestReflect01Property(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64() * 3
		got := reflect01(x)
		if got < 0 || got > 1 {
			t.Fatalf("reflect01(%v) = %v out of [0,1]", x, got)
		}
	}
}

func TestActNoisyAvoidsBoundaryPileup(t *testing.T) {
	cfg := smallConfig(2, 4)
	cfg.NoiseSigma = 0.6 // heavy noise
	a := New(cfg)
	var boundary, total int
	for i := 0; i < 200; i++ {
		act := a.ActNoisy([]float64{0.5, 0.5}, a.Noise)
		for _, v := range act {
			total++
			if v == 0 || v == 1 {
				boundary++
			}
		}
	}
	// Clamping would put ~30 % of mass exactly on the boundary here;
	// reflection leaves it in the interior.
	if frac := float64(boundary) / float64(total); frac > 0.02 {
		t.Fatalf("boundary mass %v, reflection should keep it ≈0", frac)
	}
}

func TestPolicyDelaySkipsActorUpdates(t *testing.T) {
	cfg := smallConfig(2, 2)
	cfg.PolicyDelay = 4
	a := New(cfg)
	a.ensureInit() // the weights read below exist from first use on
	for i := 0; i < 64; i++ {
		a.Observe(rl.Transition{State: []float64{0, 0}, Action: []float64{0.5, 0.5}, Reward: 1, NextState: []float64{0, 0}, Done: true})
	}
	snapshot := func() []float64 {
		var out []float64
		for _, p := range a.actor.Params() {
			out = append(out, p.Value.Data...)
		}
		return out
	}
	before := snapshot()
	// Three critic updates: no actor update yet (trainSteps 1..3).
	for i := 0; i < 3; i++ {
		if _, ok := a.TrainStep(); !ok {
			t.Fatal("TrainStep refused")
		}
	}
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("actor changed before PolicyDelay elapsed")
		}
	}
	// The fourth update moves the actor.
	if _, ok := a.TrainStep(); !ok {
		t.Fatal("TrainStep refused")
	}
	after = snapshot()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("actor never updated at the PolicyDelay boundary")
	}
}

func TestBCTargetPullsActor(t *testing.T) {
	cfg := smallConfig(3, 2)
	cfg.BCWeight = 5
	cfg.PolicyDelay = 1
	a := New(cfg)
	target := []float64{0.9, 0.1}
	a.SetBCTarget(target)
	if got := a.BCTarget(); got[0] != 0.9 || got[1] != 0.1 {
		t.Fatalf("BCTarget = %v", got)
	}
	state := []float64{0.2, 0.5, 0.8}
	for i := 0; i < 256; i++ {
		a.Observe(rl.Transition{State: state, Action: []float64{0.5, 0.5}, Reward: 0, NextState: state, Done: true})
	}
	before := a.Act(state)
	for i := 0; i < 400; i++ {
		a.TrainStep()
	}
	after := a.Act(state)
	dBefore := math.Abs(before[0]-target[0]) + math.Abs(before[1]-target[1])
	dAfter := math.Abs(after[0]-target[0]) + math.Abs(after[1]-target[1])
	if dAfter >= dBefore {
		t.Fatalf("self-imitation did not pull the actor toward the target: %v -> %v", dBefore, dAfter)
	}
	if dAfter > 0.4 {
		t.Fatalf("actor still far from target after training: %v", dAfter)
	}
	a.SetBCTarget(nil)
	if a.BCTarget() != nil {
		t.Fatal("SetBCTarget(nil) must clear")
	}
}

func TestTargetSmoothingKeepsActionsInRange(t *testing.T) {
	cfg := smallConfig(2, 3)
	a := New(cfg)
	for i := 0; i < 64; i++ {
		a.Observe(rl.Transition{State: []float64{0, 1}, Action: []float64{0, 0.5, 1}, Reward: 1, NextState: []float64{1, 0}, Done: false})
	}
	// The smoothed target actions feed the target critic; nothing here can
	// panic or produce NaN losses.
	for i := 0; i < 30; i++ {
		loss, ok := a.TrainStep()
		if !ok {
			t.Fatal("TrainStep refused")
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("loss = %v", loss)
		}
	}
}

func TestDiagnostics(t *testing.T) {
	a := New(smallConfig(3, 4))
	d := a.Diagnose(nil)
	if d.TrainSteps != 0 || d.MemorySize != 0 || d.HasBCTarget {
		t.Fatalf("fresh diagnostics: %+v", d)
	}
	states := [][]float64{{0, 0.5, 1}, {0.2, 0.4, 0.6}}
	d = a.Diagnose(states)
	if d.ActionMean <= 0 || d.ActionMean >= 1 {
		t.Fatalf("action mean %v", d.ActionMean)
	}
	if d.Saturated < 0 || d.Saturated > 1 {
		t.Fatalf("saturation %v", d.Saturated)
	}
	a.SetBCTarget([]float64{0.1, 0.2, 0.3, 0.4})
	if !a.Diagnose(states).HasBCTarget {
		t.Fatal("BC target not reported")
	}
	if s := d.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestSaveLoadPreservesBCTarget(t *testing.T) {
	cfg := smallConfig(2, 3)
	a := New(cfg)
	a.SetBCTarget([]float64{0.7, 0.2, 0.9})
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(cfg)
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := b.BCTarget()
	if got == nil || got[0] != 0.7 || got[2] != 0.9 {
		t.Fatalf("BC target lost across save/load: %v", got)
	}
	// And a nil target round-trips as nil/empty.
	c := New(cfg)
	var buf2 bytes.Buffer
	if err := c.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	if err := d.Load(&buf2); err != nil {
		t.Fatal(err)
	}
	if len(d.BCTarget()) != 0 {
		t.Fatalf("phantom BC target: %v", d.BCTarget())
	}
}
