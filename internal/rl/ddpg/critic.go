package ddpg

import (
	"math/rand"

	"cdbtune/internal/mat"
	"cdbtune/internal/nn"
)

// parallelDense is the critic's first stage from Table 5 ("Parallel Full
// Connection 128+128"): the state and action halves of the input each pass
// through their own dense head and the results are concatenated. Like the
// nn layers it pools its split/concat buffers, so the steady state
// allocates nothing; returned matrices are owned by the layer until its
// next call of the same kind.
type parallelDense struct {
	stateDim, actionDim int
	stateHead           *nn.Dense
	actionHead          *nn.Dense

	cat         *mat.Matrix // forward scratch
	gs, ga, din *mat.Matrix // Backward scratch
}

func newParallelDense(stateDim, actionDim, width int) *parallelDense {
	half := width / 2
	return &parallelDense{
		stateDim:   stateDim,
		actionDim:  actionDim,
		stateHead:  dense(stateDim, half),
		actionHead: dense(actionDim, width-half),
	}
}

// forward feeds each head its own batch and concatenates the outputs. The
// heads keep states and actions as their backward inputs, so the caller
// must leave both unmodified until the matching backward pass is done.
func (p *parallelDense) forward(states, actions *mat.Matrix, train bool) *mat.Matrix {
	fs := p.stateHead.Forward(states, train)
	fa := p.actionHead.Forward(actions, train)
	n := states.Rows
	p.cat = mat.Reuse(p.cat, n, fs.Cols+fa.Cols)
	for i := 0; i < n; i++ {
		row := p.cat.Row(i)
		copy(row[:fs.Cols], fs.Row(i))
		copy(row[fs.Cols:], fa.Row(i))
	}
	return p.cat
}

// Forward implements nn.Layer in name only: the stage sits in the critic's
// network for its parameters and backward passes, while its two inputs
// arrive separately through forward — concatenating them for this
// signature only to split them again would cost two batch copies a pass.
func (p *parallelDense) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	panic("ddpg: the critic's first stage takes (states, actions) through critic.forward")
}

// Backward implements nn.Layer, returning the gradient with respect to the
// concatenated [state|action] input.
func (p *parallelDense) Backward(grad *mat.Matrix) *mat.Matrix {
	p.splitGrad(grad)
	ds := p.stateHead.Backward(p.gs)
	da := p.actionHead.Backward(p.ga)
	n := grad.Rows
	p.din = mat.Reuse(p.din, n, p.stateDim+p.actionDim)
	for i := 0; i < n; i++ {
		row := p.din.Row(i)
		copy(row[:p.stateDim], ds.Row(i))
		copy(row[p.stateDim:], da.Row(i))
	}
	return p.din
}

// BackwardParams implements nn.ParamGradOnly: both heads accumulate their
// weight and bias gradients and neither computes its input gradient —
// the critic regression differentiates with respect to the weights only.
func (p *parallelDense) BackwardParams(grad *mat.Matrix) {
	p.splitGrad(grad)
	p.stateHead.BackwardParams(p.gs)
	p.actionHead.BackwardParams(p.ga)
}

// actionGrad returns the action half of the input gradient, ∇ₐ of the
// layer's output against grad, touching neither head's parameter
// gradients nor the state head at all. The result is the action head's
// scratch, valid until its next backward pass.
func (p *parallelDense) actionGrad(grad *mat.Matrix) *mat.Matrix {
	p.splitGrad(grad)
	return p.actionHead.BackwardInput(p.ga)
}

// splitGrad copies the two heads' halves of an output gradient into the
// gs and ga scratch.
func (p *parallelDense) splitGrad(grad *mat.Matrix) {
	n := grad.Rows
	sw := p.stateHead.Out
	p.gs = mat.Reuse(p.gs, n, sw)
	p.ga = mat.Reuse(p.ga, n, grad.Cols-sw)
	for i := 0; i < n; i++ {
		row := grad.Row(i)
		copy(p.gs.Row(i), row[:sw])
		copy(p.ga.Row(i), row[sw:])
	}
}

// Params implements nn.Layer.
func (p *parallelDense) Params() []*nn.Param {
	return append(p.stateHead.Params(), p.actionHead.Params()...)
}

// critic wraps the critic network, presenting a (state, action) interface
// over a network whose input is the concatenated pair.
type critic struct {
	network *nn.Network

	// heads is network.Layers[0] and trunk a second view of the layers
	// after it: the actor update back-propagates through the trunk and
	// then asks the heads for the action gradient alone.
	heads *parallelDense
	trunk *nn.Network
}

// newCritic assembles the Table 5 critic: parallel heads, leaky ReLU,
// Dense→Tanh→Dropout trunk stages, and a scalar output.
func newCritic(cfg Config, rng *rand.Rand) *critic {
	hidden := cfg.CriticHidden
	heads := newParallelDense(cfg.StateDim, cfg.ActionDim, hidden[0])
	layers := []nn.Layer{heads, nn.NewLeakyReLU(0.2)}
	in := hidden[0]
	for i, h := range hidden[1:] {
		layers = append(layers, dense(in, h), nn.NewTanh())
		if i == 0 {
			layers = append(layers, nn.NewDropout(cfg.Dropout, rng))
		}
		in = h
	}
	layers = append(layers, dense(in, 1))
	return &critic{
		network: nn.NewNetwork(layers...),
		heads:   heads,
		trunk:   nn.NewNetwork(layers[1:]...),
	}
}

func (c *critic) net() *nn.Network { return c.network }

// forward scores a batch of (state, action) pairs. The returned Q column
// is a network-owned buffer: it is overwritten by this critic's next
// forward, so callers must finish reading it (or copy) before then.
func (c *critic) forward(states, actions *mat.Matrix, train bool) *mat.Matrix {
	return c.trunk.Forward(c.heads.forward(states, actions, train), train)
}

// actionGrad propagates grad back through the critic and returns the
// action part of the input gradient — the ∇_a Q(s, a) term of the
// deterministic policy gradient, the only part the actor update reads —
// without accumulating any critic parameter gradient. The result is
// scratch, valid until the critic's next backward pass.
func (c *critic) actionGrad(grad *mat.Matrix) *mat.Matrix {
	return c.heads.actionGrad(c.trunk.BackwardInput(grad))
}

func (c *critic) initUniform(rng *rand.Rand, a float64) { c.network.InitUniform(rng, a) }
func (c *critic) copyTo(dst *critic)                    { c.network.CopyTo(dst.network) }
