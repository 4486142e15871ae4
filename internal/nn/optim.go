package nn

import (
	"math"
	"runtime"
	"sync"
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
		v := o.velocity[i]
		for j := range p.Value.Data {
			g := p.Grad.Data[j] + wd*p.Value.Data[j]
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
	m, v   [][]float64
	size   int // total parameter count
	t      int
}

// NewAdam returns an Adam optimizer over the parameters of net with the
// standard moment coefficients (0.9, 0.999).
func NewAdam(net *Network, lr float64) *Adam {
	ps := net.Params()
	m := make([][]float64, len(ps))
	v := make([][]float64, len(ps))
	size := 0
	for i, p := range ps {
		m[i] = make([]float64, len(p.Value.Data))
		v[i] = make([]float64, len(p.Value.Data))
		size += len(p.Value.Data)
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: ps, m: m, v: v, size: size}
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

// adamMinParallel is the parameter count below which Step stays on the
// calling goroutine: a spawn and a join cost more than the update of a
// few thousand weights (≈ 8 ns each), and the serial path allocates
// nothing, which the package's AllocsPerRun assertions depend on.
const adamMinParallel = 1 << 16

// Step implements Optimizer. The update is elementwise, so above
// adamMinParallel parameters every tensor is cut into GOMAXPROCS
// contiguous shares updated concurrently — the same arithmetic on the
// same elements, hence the same bits at any worker count.
func (o *Adam) Step() {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 || o.size < adamMinParallel {
		o.stepShare(bc1, bc2, 0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o.stepShare(bc1, bc2, w, workers)
		}(w)
	}
	o.stepShare(bc1, bc2, 0, workers)
	wg.Wait()
}

// stepShare applies the update to share w of workers of every tensor and
// clears that share of the gradient.
func (o *Adam) stepShare(bc1, bc2 float64, w, workers int) {
	for i, p := range o.params {
		wd := o.WeightDecay
		if decayExempt(p) {
			wd = 0
		}
		n := len(p.Value.Data)
		lo, hi := n*w/workers, n*(w+1)/workers
		val, grad := p.Value.Data[lo:hi], p.Grad.Data[lo:hi]
		mi, vi := o.m[i][lo:hi], o.v[i][lo:hi]
		for j := range val {
			g := grad[j] + wd*val[j]
			mi[j] = o.Beta1*mi[j] + (1-o.Beta1)*g
			vi[j] = o.Beta2*vi[j] + (1-o.Beta2)*g*g
			mhat := mi[j] / bc1
			vhat := vi[j] / bc2
			val[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
			grad[j] = 0
		}
	}
}
