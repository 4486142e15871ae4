package ddpg

import (
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
)

// TestCriticActionGradMatchesFullBackward pins the actor update's ∇ₐQ
// shortcut: actionGrad returns bit-for-bit the action columns of the full
// input gradient, and BackwardParams the full pass's parameter gradients,
// while skipping the input-gradient work nobody reads.
func TestCriticActionGradMatchesFullBackward(t *testing.T) {
	cfg := smallConfig(5, 7)
	rng := rand.New(rand.NewSource(41))
	c := newCritic(cfg, rng)
	c.initUniform(rng, 0.1)
	states, actions := mat.New(6, 5), mat.New(6, 7)
	for i := range states.Data {
		states.Data[i] = rng.Float64()
	}
	for i := range actions.Data {
		actions.Data[i] = rng.Float64()
	}
	grad := mat.New(6, 1)
	for i := range grad.Data {
		grad.Data[i] = rng.NormFloat64()
	}

	c.forward(states, actions, false)
	c.network.ZeroGrad()
	full := c.network.Backward(grad).Clone()
	var wantGrads []float64
	for _, p := range c.network.Params() {
		wantGrads = append(wantGrads, p.Grad.Data...)
	}

	c.network.ZeroGrad()
	c.network.BackwardParams(grad)
	i := 0
	for _, p := range c.network.Params() {
		for _, g := range p.Grad.Data {
			if g != wantGrads[i] {
				t.Fatalf("%s grad differs via BackwardParams: %v vs %v", p.Name, g, wantGrads[i])
			}
			i++
		}
	}

	c.network.ZeroGrad()
	da := c.actionGrad(grad)
	if da.Rows != 6 || da.Cols != 7 {
		t.Fatalf("actionGrad shape %dx%d, want 6x7", da.Rows, da.Cols)
	}
	for r := 0; r < 6; r++ {
		for j, v := range da.Row(r) {
			if want := full.At(r, 5+j); v != want {
				t.Fatalf("actionGrad[%d][%d] = %v, full backward %v", r, j, v, want)
			}
		}
	}
	for _, p := range c.network.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("actionGrad touched parameter gradient %s", p.Name)
			}
		}
	}
}
