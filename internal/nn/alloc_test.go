package nn

import (
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
)

// allocTestNet builds a network exercising every layer type with shapes
// small enough to stay on the serial GEMM path (so goroutine spawns
// cannot show up as allocations).
func allocTestNet(rng *rand.Rand) *Network {
	net := NewNetwork(
		NewDense(16, 16),
		NewLeakyReLU(0.2),
		NewBatchNorm(16),
		NewDense(16, 8),
		NewTanh(),
		NewDropout(0.3, rng),
		NewDense(8, 4),
		NewSigmoid(),
	)
	net.InitUniform(rng, 0.1)
	return net
}

// TestTrainStepAllocsZero pins the pooling contract for the whole stack:
// after warm-up, Forward(train) + Backward + the clipped Adam.Sweep into a
// target network allocates nothing.
func TestTrainStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, target := allocTestNet(rng), allocTestNet(rng)
	opt := NewAdam(net, 1e-3)
	opt.WeightDecay = 1e-4

	x := mat.New(8, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	grad := mat.New(8, 4)
	grad.Fill(0.01)

	allocs := testing.AllocsPerRun(30, func() {
		net.Forward(x, true)
		net.Backward(grad)
		_, scale := net.ClipScale(0.001)
		opt.Sweep(scale, target, 0.01)
	})
	if allocs != 0 {
		t.Fatalf("steady-state train step allocates %v times, want 0", allocs)
	}
}

// TestInferAllocsZero pins the fused inference path: after warm-up,
// Network.Infer allocates nothing.
func TestInferAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := allocTestNet(rng)

	x := mat.New(8, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}

	allocs := testing.AllocsPerRun(30, func() {
		net.Infer(x)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Infer allocates %v times, want 0", allocs)
	}
}

// TestParamsCached pins that the parameter list is computed once, so the
// per-step Params() calls in optimizers and soft updates stay free.
func TestParamsCached(t *testing.T) {
	net := allocTestNet(rand.New(rand.NewSource(9)))
	first := net.Params()
	if allocs := testing.AllocsPerRun(10, func() { net.Params() }); allocs != 0 {
		t.Fatalf("cached Params allocates %v times", allocs)
	}
	second := net.Params()
	if len(first) != len(second) || &first[0] != &second[0] {
		t.Fatal("Params returned a different slice on the second call")
	}
}
