package ddpg

import (
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

// newBenchmarkAgent builds the paper's default architecture over 63
// metrics and the given number of knobs, with a warm replay pool. 266 is
// the shape every full-catalog serving job trains (the benchmark's
// scratch_full and warm_full workloads); 20 is the small historical
// shape BENCH_hotpath.json's train_step_us has tracked since the seed.
func newBenchmarkAgent(knobs int) *Agent {
	cfg := DefaultConfig(63, knobs)
	a := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 512; i++ {
		a.Observe(rl.Transition{
			State:     randUnitSlice(rng, 63),
			Action:    randUnitSlice(rng, knobs),
			Reward:    rng.NormFloat64(),
			NextState: randUnitSlice(rng, 63),
		})
	}
	a.SetBCTarget(randUnitSlice(rng, knobs))
	return a
}

func randUnitSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func BenchmarkTrainStepInfo(b *testing.B)    { benchmarkTrainStep(b, 20) }
func BenchmarkTrainStepInfo266(b *testing.B) { benchmarkTrainStep(b, 266) }

func benchmarkTrainStep(b *testing.B, knobs int) {
	a := newBenchmarkAgent(knobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.TrainStepInfo(); !ok {
			b.Fatal("train step refused to run")
		}
	}
}
