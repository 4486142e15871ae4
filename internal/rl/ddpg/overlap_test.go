package ddpg

import (
	"math/rand"
	"runtime"
	"testing"

	"cdbtune/internal/rl"
)

func randUnitVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// overlapTrainedWeights builds a small seeded agent, feeds it a fixed
// transition stream, applies the given number of updates, and returns
// every network weight.
func overlapTrainedWeights(t *testing.T, steps int) []float64 {
	t.Helper()
	cfg := DefaultConfig(6, 3)
	cfg.ActorHidden = []int{16, 8}
	cfg.CriticHidden = []int{16, 8}
	cfg.BatchSize = 8
	cfg.MinMemory = 8
	cfg.MemoryCapacity = 256
	cfg.Seed = 42
	a := New(cfg)
	a.SetBCTarget([]float64{0.5, 0.4, 0.6})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 64; i++ {
		a.Observe(rl.Transition{
			State:     randUnitVec(rng, 6),
			Action:    randUnitVec(rng, 3),
			Reward:    rng.NormFloat64(),
			NextState: randUnitVec(rng, 6),
		})
	}
	for i := 0; i < steps; i++ {
		if _, ok := a.TrainStepInfo(); !ok {
			t.Fatal("train step refused to run")
		}
	}
	var ws []float64
	for _, net := range a.networks() {
		for _, p := range net.Params() {
			ws = append(ws, p.Value.Data...)
		}
	}
	return ws
}

// TestTrainStepDeterministicAcrossGOMAXPROCS pins the overlapped
// target/online schedule in TrainStepInfo (and the parallel GEMM path
// beneath it): training must be bit-for-bit reproducible from the seed
// regardless of available parallelism.
func TestTrainStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	serial := overlapTrainedWeights(t, 12)
	runtime.GOMAXPROCS(4)
	parallel := overlapTrainedWeights(t, 12)

	if len(serial) != len(parallel) {
		t.Fatalf("weight count mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("weights diverge at %d: GOMAXPROCS=1 %v vs GOMAXPROCS=4 %v", i, serial[i], parallel[i])
		}
	}
}

// TestTrainStepAllocBoundTwoProcs bounds a serving-shape update's
// allocations with a second processor available, which the nn package's
// zero-allocation tests never see (testing.AllocsPerRun pins GOMAXPROCS
// to 1, hence the hand count here). Every fan-out costs a goroutine and
// a closure: on the SIMD kernels only the overlapped target pass fans
// out (10 allocations a step); on the portable kernels the larger GEMMs
// still split their rows (≈ 130). One spawn per chunk with the caller
// parked, as before, was 252.
func TestTrainStepAllocBoundTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a := newBenchmarkAgent(266)
	for i := 0; i < 4; i++ {
		a.TrainStepInfo()
	}
	const steps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		if _, ok := a.TrainStepInfo(); !ok {
			t.Fatal("train step refused to run")
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / steps; allocs > 160 {
		t.Fatalf("train step at GOMAXPROCS=2 allocates %.0f times, want ≤ 160", allocs)
	}
}
