package nn

import (
	"fmt"
	"math"
	"math/rand"

	"cdbtune/internal/mat"
)

// Param is a learnable tensor together with its accumulated gradient.
// Grad is nil until the parameter's first backward pass or ZeroGrad, and
// Value's Data is nil while the parameter is unallocated (see the package
// documentation, "Storage on first need").
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// newParam allocates a named parameter of the given shape; its gradient
// buffer comes with the first backward pass.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: mat.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient, allocating it on first use.
func (p *Param) ZeroGrad() { p.grad().Zero() }

// grad returns the gradient buffer, allocating a zero one on first use.
func (p *Param) grad() *mat.Matrix {
	if p.Grad == nil {
		p.Grad = mat.New(p.Value.Rows, p.Value.Cols)
	}
	return p.Grad
}

// alloc gives an unallocated parameter zeroed storage.
func (p *Param) alloc() {
	if p.Value.Data == nil {
		p.Value.Data = make([]float64, p.Value.Rows*p.Value.Cols)
	}
}

// Layer is one differentiable stage of a network. Forward consumes a batch
// (rows = samples) and returns the activated batch; Backward consumes the
// gradient of the loss with respect to the layer output and returns the
// gradient with respect to the layer input, accumulating parameter
// gradients along the way. A layer may behave differently in training and
// evaluation mode (Dropout, BatchNorm).
type Layer interface {
	Forward(x *mat.Matrix, train bool) *mat.Matrix
	Backward(grad *mat.Matrix) *mat.Matrix
	Params() []*Param
}

// Network is a sequential stack of layers. Layers must not be modified
// after the first call to Params (directly or via an optimizer,
// CopyTo, ...): the parameter list is cached.
type Network struct {
	Layers []Layer

	params  []*Param // cached by Params
	adopted bool     // values alias an adopted NetworkState (see Adopt)
}

// NewNetwork builds a sequential network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the batch x through every layer. train selects training-mode
// behaviour for stochastic/normalizing layers.
func (n *Network) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Inferrer is an optional Layer extension: Infer computes the layer's
// evaluation-mode activation without caching state for Backward. Forward
// — even in evaluation mode — writes per-layer caches (last input,
// activation masks), so interleaving it with a training pass corrupts the
// pending backward state; Infer leaves the layer untouched. Every layer
// in this package implements it.
type Inferrer interface {
	Infer(x *mat.Matrix) *mat.Matrix
}

// Infer runs the batch x through every layer in evaluation mode without
// recording backward state, falling back to eval-mode Forward for layers
// that do not implement Inferrer. It is the inference fast path behind
// the DDPG agent's Act: numerically identical to
// Forward(x, false), but read-only on the network apart from parameter
// values — callers still must not run it concurrently with an update that
// mutates those parameters.
func (n *Network) Infer(x *mat.Matrix) *mat.Matrix {
	for i := 0; i < len(n.Layers); i++ {
		l := n.Layers[i]
		// Fused Dense+activation: the affine output lands in the Dense
		// layer's inference buffer and the elementwise activation is
		// applied to it in place, skipping the activation layer's own
		// buffer and pass entirely.
		if d, ok := l.(*Dense); ok && i+1 < len(n.Layers) {
			if act, fuse := n.Layers[i+1].(inPlaceActivation); fuse {
				x = d.Infer(x)
				act.activateInPlace(x)
				i++
				continue
			}
		}
		if inf, ok := l.(Inferrer); ok {
			x = inf.Infer(x)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// inPlaceActivation marks stateless elementwise activations whose
// inference step can mutate the previous layer's output buffer directly,
// enabling the fused Dense+activation path in Network.Infer.
type inPlaceActivation interface {
	activateInPlace(m *mat.Matrix)
}

// Backward propagates the output gradient back through every layer,
// accumulating parameter gradients, and returns the input gradient.
func (n *Network) Backward(grad *mat.Matrix) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// InputGradOnly is an optional Layer extension: BackwardInput returns
// the same input gradient as Backward without accumulating parameter
// gradients. Layers with parameters implement it so that input-gradient
// consumers (the deterministic policy gradient's ∇ₐQ pass) skip the
// weight-gradient GEMMs entirely instead of computing and discarding
// them.
type InputGradOnly interface {
	BackwardInput(grad *mat.Matrix) *mat.Matrix
}

// BackwardInput propagates the output gradient to the network input
// without accumulating any parameter gradient: layers implementing
// InputGradOnly use their parameter-free path, and parameter-less
// layers fall back to Backward (which touches no parameters). The
// returned gradient is bit-identical to Backward's; accumulated
// parameter gradients are left exactly as they were.
func (n *Network) BackwardInput(grad *mat.Matrix) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(InputGradOnly); ok {
			grad = l.BackwardInput(grad)
		} else {
			grad = n.Layers[i].Backward(grad)
		}
	}
	return grad
}

// ParamGradOnly is the mirror image of InputGradOnly: BackwardParams
// accumulates the same parameter gradients as Backward without computing
// the input gradient. A network's first layer implements it so that a
// training pass — which differentiates with respect to the weights, not
// the batch — does not compute and discard a gradient nobody reads.
type ParamGradOnly interface {
	BackwardParams(grad *mat.Matrix)
}

// BackwardParams is Backward for callers that do not need the gradient
// with respect to the network input: every parameter gradient accumulates
// exactly as in Backward, and the first layer, whose input gradient would
// be the return value, skips it when it implements ParamGradOnly.
func (n *Network) BackwardParams(grad *mat.Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(ParamGradOnly); i == 0 && ok {
			l.BackwardParams(grad)
			return
		}
		grad = n.Layers[i].Backward(grad)
	}
}

// Params returns every learnable parameter in layer order. The slice is
// computed once and cached; callers must not append to it or reorder it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// ZeroGrad clears all parameter gradients, allocating every buffer the
// network does not have yet.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// CopyTo copies every parameter value of n into dst, which must have an
// identical architecture; an unallocated destination parameter is
// allocated first, and an adopted state is left untouched (Own). Used to
// initialize DDPG target networks.
func (n *Network) CopyTo(dst *Network) {
	sp, dp := n.Params(), dst.Params()
	if len(sp) != len(dp) {
		panic(fmt.Sprintf("nn: CopyTo param count mismatch %d vs %d", len(sp), len(dp)))
	}
	dst.Own()
	for i := range sp {
		dp[i].alloc()
		copy(dp[i].Value.Data, sp[i].Value.Data)
	}
}

// ClipScale returns the global L2 norm of the accumulated gradients and
// the factor that brings it down to maxNorm — 1 when the norm is already
// within it, or when maxNorm <= 0 disables clipping. It writes nothing:
// the factor is applied by Adam.Sweep as it reads each gradient, and the
// caller sees the norm (the sum of squares in parameter order, a serial
// chain) before any weight is touched, so a non-finite norm can still
// discard the whole update.
func (n *Network) ClipScale(maxNorm float64) (norm, scale float64) {
	var total float64
	for _, p := range n.Params() {
		if p.Grad == nil {
			continue // never backpropagated: a zero gradient
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm = math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		return norm, maxNorm / norm
	}
	return norm, 1
}

// MaxAbsWeight returns the largest parameter magnitude in the network,
// NaN if any parameter is NaN (returned immediately): the figure
// Adam.Sweep returns as a by-product, by a scan, for a network the current
// step did not sweep.
func (n *Network) MaxAbsWeight() float64 {
	var max float64
	for _, p := range n.Params() {
		for _, v := range p.Value.Data {
			a := math.Abs(v)
			if math.IsNaN(a) {
				return a
			}
			if a > max {
				max = a
			}
		}
	}
	return max
}

// InitUniform fills every parameter value of n with Uniform(−a, a) draws,
// matching the paper's ω ~ Uniform(−0.1, 0.1) initialization (Table 4).
// Bias-style parameters (single row named "b" or "beta") are zeroed.
func (n *Network) InitUniform(rng *rand.Rand, a float64) {
	n.init(func() float64 { return (rng.Float64()*2 - 1) * a })
}

// InitNormal fills weights with Normal(0, std) draws, matching the paper's
// θ^µ ~ Normal(0, 0.01) initialization (Table 4).
func (n *Network) InitNormal(rng *rand.Rand, std float64) {
	n.init(func() float64 { return rng.NormFloat64() * std })
}

// init allocates every unallocated parameter, leaves an adopted state
// untouched (Own), zeroes biases and BatchNorm's β, sets γ to one and
// fills every other value from draw, in Params order.
func (n *Network) init(draw func() float64) {
	n.Own()
	for _, p := range n.Params() {
		p.alloc()
		if !drawnByInit(p) {
			if p.Name == "gamma" {
				p.Value.Fill(1)
			} else {
				p.Value.Zero()
			}
			continue
		}
		for i := range p.Value.Data {
			p.Value.Data[i] = draw()
		}
	}
}

// drawnByInit reports whether InitNormal and InitUniform draw p's values:
// every parameter but the biases and BatchNorm's affine pair.
func drawnByInit(p *Param) bool {
	switch p.Name {
	case "b", "beta", "gamma":
		return false
	}
	return true
}

// InitDraws is the number of random draws InitNormal or InitUniform takes
// on n: one per value of every parameter drawnByInit admits. A caller that
// receives its weights whole instead can take (and discard) exactly these
// draws, leaving its rng where an initialized network would have left it.
func (n *Network) InitDraws() int {
	var k int
	for _, p := range n.Params() {
		if drawnByInit(p) {
			k += p.Value.Rows * p.Value.Cols
		}
	}
	return k
}
