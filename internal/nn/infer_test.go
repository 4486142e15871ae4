package nn

import (
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
)

// inferTestNet covers every layer type in one stack.
func inferTestNet(rng *rand.Rand) *Network {
	n := NewNetwork(
		NewDense(4, 8), NewLeakyReLU(0.2), NewBatchNorm(8),
		NewDense(8, 8), NewTanh(), NewDropout(0.3, rng),
		NewDense(8, 3), NewSigmoid(),
	)
	n.InitNormal(rng, 0.5)
	return n
}

// Infer must be numerically identical to eval-mode Forward.
func TestInferMatchesEvalForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := inferTestNet(rng)
	x := mat.New(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := n.Forward(x.Clone(), false)
	got := n.Infer(x)
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("Infer[%d] = %v, Forward = %v", i, got.Data[i], want.Data[i])
		}
	}
}

// Infer between a training-mode Forward and its Backward must not disturb
// the cached activations: the gradients must match a run without the
// interleaved Infer. This is the property ddpg.Agent.Act documents: acting
// on a network never disturbs a gradient update pending on it.
func TestInferDoesNotClobberBackwardState(t *testing.T) {
	run := func(interleave bool) []float64 {
		rng := rand.New(rand.NewSource(23))
		n := inferTestNet(rng)
		x := mat.New(6, 4)
		probe := mat.New(2, 4)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range probe.Data {
			probe.Data[i] = rng.NormFloat64()
		}
		out := n.Forward(x, true)
		if interleave {
			n.Infer(probe)
		}
		grad := mat.New(out.Rows, out.Cols)
		grad.Fill(1)
		n.ZeroGrad()
		n.Backward(grad)
		var gs []float64
		for _, p := range n.Params() {
			gs = append(gs, p.Grad.Data...)
		}
		return gs
	}
	clean, interleaved := run(false), run(true)
	if len(clean) != len(interleaved) {
		t.Fatalf("gradient sizes differ: %d vs %d", len(clean), len(interleaved))
	}
	for i := range clean {
		if clean[i] != interleaved[i] {
			t.Fatalf("grad[%d] changed by interleaved Infer: %v vs %v", i, interleaved[i], clean[i])
		}
	}
}
