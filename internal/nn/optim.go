package nn

import (
	"fmt"
	"math"

	"cdbtune/internal/mat"
)

// Optimizer updates network parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients and then clears
	// them.
	Step()
}

// decayExempt reports whether a parameter is excluded from L2 weight
// decay: bias rows and BatchNorm affine parameters are not weights —
// shrinking gamma/beta toward zero distorts the learned normalization
// instead of regularizing capacity.
func decayExempt(p *Param) bool {
	switch p.Name {
	case "b", "beta", "gamma":
		return true
	}
	return false
}

// SGD is stochastic gradient descent with optional classical momentum and
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	params   []*Param
	velocity [][]float64
}

// NewSGD returns an SGD optimizer over the parameters of net.
func NewSGD(net *Network, lr, momentum float64) *SGD {
	ps := net.Params()
	vel := make([][]float64, len(ps))
	for i, p := range ps {
		vel[i] = make([]float64, len(p.Value.Data))
	}
	return &SGD{LR: lr, Momentum: momentum, params: ps, velocity: vel}
}

// Step implements Optimizer.
func (o *SGD) Step() {
	for i, p := range o.params {
		wd := o.WeightDecay
		if decayExempt(p) {
			wd = 0
		}
		v, grad := o.velocity[i], p.grad().Data
		for j := range p.Value.Data {
			g := grad[j] + wd*p.Value.Data[j]
			v[j] = o.Momentum*v[j] - o.LR*g
			p.Value.Data[j] += v[j]
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba 2015) with optional L2 weight
// decay, the optimizer used for both actor and critic in our DDPG.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*Param
	m, v   [][]float64 // nil until the first Sweep
	t      int
}

// NewAdam returns an Adam optimizer over the parameters of net with the
// standard moment coefficients (0.9, 0.999). The moments are allocated by
// the first Sweep: a network that is never updated never pays for them.
func NewAdam(net *Network, lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: net.Params()}
}

// Reset clears the accumulated first/second moments and the step counter.
// The learner-health supervisor calls it after rolling weights back to a
// snapshot: moments estimated on a diverging trajectory would immediately
// push the restored weights back toward the divergence.
func (o *Adam) Reset() {
	o.t = 0
	for i := range o.m {
		for j := range o.m[i] {
			o.m[i][j] = 0
			o.v[i][j] = 0
		}
	}
}

// allocMoments gives the optimizer its zeroed first and second moments.
func (o *Adam) allocMoments() {
	o.m = make([][]float64, len(o.params))
	o.v = make([][]float64, len(o.params))
	for i, p := range o.params {
		o.m[i] = make([]float64, len(p.Value.Data))
		o.v[i] = make([]float64, len(p.Value.Data))
	}
}

// Step implements Optimizer: Sweep with the gradients as they are and no
// target network.
func (o *Adam) Step() { o.Sweep(1, nil, 0) }

// Sweep is everything a training step does to a network after its
// backward pass, in one pass over the parameters: scale the gradient
// (gradScale is Network.ClipScale's factor; 1 leaves it as accumulated),
// apply the Adam update, clear the gradient, blend the new weight into
// target by θ′ ← τ·θ + (1−τ)·θ′ (the Polyak averaging DDPG uses for its
// target networks; target == nil skips it) and return the largest
// parameter magnitude after the update — a cheap health signal: a
// diverging optimizer shows up as a runaway max weight long before every
// output is NaN, and the result is NaN as soon as any weight is, so a
// non-finite weight cannot hide behind a finite maximum. It writes the
// weights, moments and gradients of the optimizer's network and the
// weights of target, which must have the same architecture; decide
// whether the update may be applied at all (a finite loss, a finite
// gradient norm) before calling it.
func (o *Adam) Sweep(gradScale float64, target *Network, tau float64) float64 {
	var tp []*Param
	if target != nil {
		if tp = target.Params(); len(tp) != len(o.params) {
			panic(fmt.Sprintf("nn: Sweep target param count mismatch %d vs %d", len(tp), len(o.params)))
		}
	}
	if o.m == nil {
		o.allocMoments()
	}
	o.t++
	c := sweepConsts{
		scale: gradScale,
		beta1: o.Beta1, omBeta1: 1 - o.Beta1,
		beta2: o.Beta2, omBeta2: 1 - o.Beta2,
		bc1: 1 - math.Pow(o.Beta1, float64(o.t)),
		bc2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr:  o.LR, eps: o.Eps,
		tau: tau, omTau: 1 - tau,
	}
	var maxBits uint64
	for i, p := range o.params {
		c.wd = o.WeightDecay
		if decayExempt(p) {
			c.wd = 0
		}
		var t []float64
		if tp != nil {
			if t = tp[i].Value.Data; len(t) != len(p.Value.Data) {
				panic(fmt.Sprintf("nn: Sweep target tensor %d has %d values, want %d", i, len(t), len(p.Value.Data)))
			}
		}
		maxBits = sweep(p.Value.Data, p.grad().Data, o.m[i], o.v[i], t, &c, maxBits)
	}
	return math.Float64frombits(maxBits)
}

// sweepConsts are one Sweep's per-step constants. The AVX2 kernel
// (sweep_amd64.s) reads them by offset: twelve float64s in this order.
type sweepConsts struct {
	scale, wd      float64
	beta1, omBeta1 float64 // β₁, 1−β₁
	beta2, omBeta2 float64
	bc1, bc2       float64 // bias corrections 1−β₁ᵗ, 1−β₂ᵗ
	lr, eps        float64
	tau, omTau     float64
}

// sweep runs one tensor through the update: whole 4-element blocks
// through the AVX2 kernel where the host has it, the rest (everything,
// elsewhere) through sweepScalar. Both give the same bits. t is nil
// without a target, else as long as w. maxBits carries the running max
// |w| as its IEEE bit pattern — see sweepScalar.
func sweep(w, g, m, v, t []float64, c *sweepConsts, maxBits uint64) uint64 {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)] // the kernel does no bounds checks
	n4 := 0
	if mat.HasAVX2() {
		n4 = len(w) &^ 3
	}
	if n4 > 0 {
		var tp *float64
		if t != nil {
			tp = &t[0]
			t = t[n4:]
		}
		k := sweepAVX2(&w[0], &g[0], &m[0], &v[0], tp, n4/4, c)
		if b := math.Float64bits(k); b > maxBits {
			maxBits = b
		}
	}
	return sweepScalar(w[n4:], g[n4:], m[n4:], v[n4:], t, c, maxBits)
}

// sweepScalar is the one place the update rule is written; the AVX2
// kernel is this loop four elements at a time, operation for operation:
// every product is rounded before it is added (no FMA — the conversion
// pins that where a compiler would fuse), `/` and math.Sqrt are correctly
// rounded as VDIVPD and VSQRTPD are, and lr·m̂ is formed before the
// division. The max is kept as a bit pattern because for non-negative
// floats the patterns order as the values do and every NaN's pattern is
// above +Inf's: one integer compare gives "the maximum, or NaN as soon as
// any weight is NaN" with nothing to special-case.
func sweepScalar(w, g, m, v, t []float64, c *sweepConsts, maxBits uint64) uint64 {
	for j := range w {
		gj := float64(g[j]*c.scale) + float64(c.wd*w[j])
		m[j] = float64(c.beta1*m[j]) + float64(c.omBeta1*gj)
		v[j] = float64(c.beta2*v[j]) + float64(float64(c.omBeta2*gj)*gj)
		mhat := m[j] / c.bc1
		vhat := v[j] / c.bc2
		w[j] -= float64(c.lr*mhat) / (math.Sqrt(vhat) + c.eps)
		g[j] = 0
		if t != nil {
			t[j] = float64(c.tau*w[j]) + float64(c.omTau*t[j])
		}
		if b := math.Float64bits(math.Abs(w[j])); b > maxBits {
			maxBits = b
		}
	}
	return maxBits
}
