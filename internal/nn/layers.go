package nn

import (
	"math"
	"math/rand"

	"cdbtune/internal/mat"
)

// Every layer in this file owns per-layer scratch buffers for its
// Forward, Backward and Infer outputs (see the package documentation
// for the ownership contract): buffers are recycled via mat.Reuse, so
// the steady state of a training loop allocates nothing. A returned
// matrix is valid until the same layer's next call of the same kind.
// Forward and Infer deliberately use disjoint buffers — Infer between a
// training Forward and its Backward must not disturb the cached
// activations.

// Dense is a fully connected layer computing y = x·W + b for a batch x
// (rows = samples, cols = In). W is In×Out, b is 1×Out.
type Dense struct {
	In, Out int
	W, B    *Param

	lastInput *mat.Matrix

	out, inferOut, dx *mat.Matrix // scratch, recycled across calls
}

// NewDense returns a Dense layer with zero-initialized parameters; call one
// of the Network Init* methods (or set values directly) before use.
func NewDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, W: newParam("W", in, out), B: newParam("b", 1, out)}
}

// Forward implements Layer.
func (d *Dense) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	d.lastInput = x
	d.out = mat.Reuse(d.out, x.Rows, d.Out)
	mat.Mul(d.out, x, d.W.Value)
	d.out.AddRowVector(d.B.Value.Data)
	return d.out
}

// Infer implements Inferrer: Forward without caching the input for
// Backward, on a buffer disjoint from Forward's.
func (d *Dense) Infer(x *mat.Matrix) *mat.Matrix {
	d.inferOut = mat.Reuse(d.inferOut, x.Rows, d.Out)
	mat.Mul(d.inferOut, x, d.W.Value)
	d.inferOut.AddRowVector(d.B.Value.Data)
	return d.inferOut
}

// Backward implements Layer: accumulates dW = xᵀ·grad, db = Σ grad and
// returns dx = grad·Wᵀ.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix {
	d.BackwardParams(grad)
	return d.BackwardInput(grad)
}

// BackwardParams implements ParamGradOnly: the weight and bias gradients
// accumulate directly into the Param tensors without intermediate
// products, and dx = grad·Wᵀ is not computed.
func (d *Dense) BackwardParams(grad *mat.Matrix) {
	mat.TMulAdd(d.W.grad(), d.lastInput, grad)
	grad.AddColSums(d.B.grad().Data)
}

// BackwardInput implements InputGradOnly: dx = grad·Wᵀ, skipping the
// weight- and bias-gradient accumulation.
func (d *Dense) BackwardInput(grad *mat.Matrix) *mat.Matrix {
	d.dx = mat.Reuse(d.dx, grad.Rows, d.In)
	return mat.MulT(d.dx, grad, d.W.Value)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU applies max(0, x) elementwise. The paper's actor uses a (leaky)
// ReLU with slope Alpha on the negative side; Alpha = 0 gives plain ReLU
// and Table 5's "ReLU 0.2" corresponds to Alpha = 0.2.
type ReLU struct {
	Alpha float64

	mask *mat.Matrix

	out, inferOut, dx *mat.Matrix // scratch
}

// NewReLU returns a plain rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// NewLeakyReLU returns a leaky rectifier with the given negative slope.
func NewLeakyReLU(alpha float64) *ReLU { return &ReLU{Alpha: alpha} }

// Forward implements Layer.
func (r *ReLU) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	r.out = mat.Reuse(r.out, x.Rows, x.Cols)
	r.mask = mat.Reuse(r.mask, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			r.out.Data[i] = v
			r.mask.Data[i] = 1
		} else {
			r.out.Data[i] = r.Alpha * v
			r.mask.Data[i] = r.Alpha
		}
	}
	return r.out
}

// Infer implements Inferrer: Forward without recording the mask.
func (r *ReLU) Infer(x *mat.Matrix) *mat.Matrix {
	r.inferOut = mat.Reuse(r.inferOut, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			r.inferOut.Data[i] = v
		} else {
			r.inferOut.Data[i] = r.Alpha * v
		}
	}
	return r.inferOut
}

// activateInPlace implements the fused-inference hook.
func (r *ReLU) activateInPlace(m *mat.Matrix) {
	for i, v := range m.Data {
		if v <= 0 {
			m.Data[i] = r.Alpha * v
		}
	}
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *mat.Matrix) *mat.Matrix {
	r.dx = mat.Reuse(r.dx, grad.Rows, grad.Cols)
	return mat.Hadamard(r.dx, grad, r.mask)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	lastOut *mat.Matrix

	inferOut, dx *mat.Matrix // scratch (lastOut doubles as the Forward buffer)
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	t.lastOut = mat.Reuse(t.lastOut, x.Rows, x.Cols)
	for i, v := range x.Data {
		t.lastOut.Data[i] = math.Tanh(v)
	}
	return t.lastOut
}

// Infer implements Inferrer: Forward without recording the activation.
func (t *Tanh) Infer(x *mat.Matrix) *mat.Matrix {
	t.inferOut = mat.Reuse(t.inferOut, x.Rows, x.Cols)
	for i, v := range x.Data {
		t.inferOut.Data[i] = math.Tanh(v)
	}
	return t.inferOut
}

// activateInPlace implements the fused-inference hook.
func (t *Tanh) activateInPlace(m *mat.Matrix) {
	for i, v := range m.Data {
		m.Data[i] = math.Tanh(v)
	}
}

// Backward implements Layer: dx = grad ⊙ (1 − y²).
func (t *Tanh) Backward(grad *mat.Matrix) *mat.Matrix {
	t.dx = mat.Reuse(t.dx, grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		y := t.lastOut.Data[i]
		t.dx.Data[i] = g * (1 - y*y)
	}
	return t.dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid applies the logistic function elementwise. The actor's output
// layer uses it to keep normalized knob values in (0, 1).
type Sigmoid struct {
	lastOut *mat.Matrix

	inferOut, dx *mat.Matrix // scratch
}

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	s.lastOut = mat.Reuse(s.lastOut, x.Rows, x.Cols)
	for i, v := range x.Data {
		s.lastOut.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return s.lastOut
}

// Infer implements Inferrer: Forward without recording the activation.
func (s *Sigmoid) Infer(x *mat.Matrix) *mat.Matrix {
	s.inferOut = mat.Reuse(s.inferOut, x.Rows, x.Cols)
	for i, v := range x.Data {
		s.inferOut.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return s.inferOut
}

// activateInPlace implements the fused-inference hook.
func (s *Sigmoid) activateInPlace(m *mat.Matrix) {
	for i, v := range m.Data {
		m.Data[i] = 1 / (1 + math.Exp(-v))
	}
}

// Backward implements Layer: dx = grad ⊙ y(1−y).
func (s *Sigmoid) Backward(grad *mat.Matrix) *mat.Matrix {
	s.dx = mat.Reuse(s.dx, grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		y := s.lastOut.Data[i]
		s.dx.Data[i] = g * y * (1 - y)
	}
	return s.dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Dropout randomly zeroes activations with probability P during training
// (inverted dropout: surviving units are scaled by 1/(1−P) so evaluation
// needs no rescaling). Table 5 uses P = 0.3.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask *mat.Matrix

	out, dx *mat.Matrix // scratch
}

// NewDropout returns a Dropout layer with drop probability p, drawing
// masks from rng.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.P
	d.mask = mat.Reuse(d.mask, x.Rows, x.Cols)
	d.out = mat.Reuse(d.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = 1 / keep
			d.out.Data[i] = v / keep
		} else {
			d.mask.Data[i] = 0
			d.out.Data[i] = 0
		}
	}
	return d.out
}

// Infer implements Inferrer: inverted dropout is the identity at
// evaluation time, and unlike eval-mode Forward it leaves the training
// mask in place.
func (d *Dropout) Infer(x *mat.Matrix) *mat.Matrix { return x }

// Backward implements Layer.
func (d *Dropout) Backward(grad *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return grad
	}
	d.dx = mat.Reuse(d.dx, grad.Rows, grad.Cols)
	return mat.Hadamard(d.dx, grad, d.mask)
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// BatchNorm normalizes each feature over the batch during training and by
// running statistics during evaluation, then applies a learned affine
// transform γ·x̂ + β.
type BatchNorm struct {
	Dim      int
	Eps      float64
	Momentum float64

	Gamma, Beta *Param

	// Running statistics for evaluation mode. RunningVar tracks the
	// unbiased (÷N−1) batch variance, matching the standard estimator
	// eval-mode normalization expects; the in-batch normalization itself
	// uses the biased (÷N) variance as usual.
	RunningMean, RunningVar []float64

	// Cached forward state for backward.
	xhat   *mat.Matrix
	invStd []float64

	out, inferOut, dx *mat.Matrix // scratch
	mean, variance    []float64   // scratch
	dgamma, dbeta     []float64   // scratch
}

// NewBatchNorm returns a BatchNorm layer over dim features with the usual
// defaults (eps 1e-5, momentum 0.1).
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:         dim,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       newParam("gamma", 1, dim),
		Beta:        newParam("beta", 1, dim),
		RunningMean: make([]float64, dim),
		RunningVar:  make([]float64, dim),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	b.out = mat.Reuse(b.out, x.Rows, x.Cols)
	if train && x.Rows > 1 {
		b.mean = mat.ReuseVec(b.mean, b.Dim)
		x.ColMeansInto(b.mean)
		b.variance = mat.ReuseVec(b.variance, b.Dim)
		for j := range b.variance {
			b.variance[j] = 0
		}
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			for j, v := range row {
				d := v - b.mean[j]
				b.variance[j] += d * d
			}
		}
		for j := range b.variance {
			b.variance[j] /= float64(x.Rows)
		}
		b.invStd = mat.ReuseVec(b.invStd, b.Dim)
		for j := range b.invStd {
			b.invStd[j] = 1 / math.Sqrt(b.variance[j]+b.Eps)
		}
		b.xhat = mat.Reuse(b.xhat, x.Rows, x.Cols)
		for i := 0; i < x.Rows; i++ {
			xr, hr, yr := x.Row(i), b.xhat.Row(i), b.out.Row(i)
			for j := range xr {
				h := (xr[j] - b.mean[j]) * b.invStd[j]
				hr[j] = h
				yr[j] = b.Gamma.Value.Data[j]*h + b.Beta.Value.Data[j]
			}
		}
		// Running stats track the unbiased (÷N−1) variance estimator —
		// folding the biased batch variance in instead would skew
		// eval-mode outputs at small batch sizes.
		m := b.Momentum
		unbias := float64(x.Rows) / float64(x.Rows-1)
		for j := range b.mean {
			b.RunningMean[j] = (1-m)*b.RunningMean[j] + m*b.mean[j]
			b.RunningVar[j] = (1-m)*b.RunningVar[j] + m*b.variance[j]*unbias
		}
		return b.out
	}
	// Evaluation (or single-sample) mode: use running statistics.
	b.xhat = nil
	b.normalizeByRunningStats(x, b.out)
	return b.out
}

// Infer implements Inferrer: normalization by running statistics without
// clearing the cached training-mode batch state.
func (b *BatchNorm) Infer(x *mat.Matrix) *mat.Matrix {
	b.inferOut = mat.Reuse(b.inferOut, x.Rows, x.Cols)
	b.normalizeByRunningStats(x, b.inferOut)
	return b.inferOut
}

func (b *BatchNorm) normalizeByRunningStats(x, y *mat.Matrix) {
	for i := 0; i < x.Rows; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for j := range xr {
			h := (xr[j] - b.RunningMean[j]) / math.Sqrt(b.RunningVar[j]+b.Eps)
			yr[j] = b.Gamma.Value.Data[j]*h + b.Beta.Value.Data[j]
		}
	}
}

// Backward implements Layer using the standard batch-norm gradient.
func (b *BatchNorm) Backward(grad *mat.Matrix) *mat.Matrix {
	return b.backward(grad, true)
}

// BackwardInput implements InputGradOnly. The per-feature gradient sums
// are still computed (the input gradient depends on them) but are not
// folded into Gamma.Grad/Beta.Grad.
func (b *BatchNorm) BackwardInput(grad *mat.Matrix) *mat.Matrix {
	return b.backward(grad, false)
}

func (b *BatchNorm) backward(grad *mat.Matrix, accumulate bool) *mat.Matrix {
	b.dx = mat.Reuse(b.dx, grad.Rows, grad.Cols)
	if b.xhat == nil {
		// Evaluation-mode backward (used when training with batch size 1):
		// treat running stats as constants.
		for i := 0; i < grad.Rows; i++ {
			gr, dr := grad.Row(i), b.dx.Row(i)
			for j := range gr {
				dr[j] = gr[j] * b.Gamma.Value.Data[j] / math.Sqrt(b.RunningVar[j]+b.Eps)
			}
		}
		return b.dx
	}
	n := float64(grad.Rows)
	b.dgamma = mat.ReuseVec(b.dgamma, b.Dim)
	b.dbeta = mat.ReuseVec(b.dbeta, b.Dim)
	for j := 0; j < b.Dim; j++ {
		b.dgamma[j] = 0
		b.dbeta[j] = 0
	}
	for i := 0; i < grad.Rows; i++ {
		gr, hr := grad.Row(i), b.xhat.Row(i)
		for j := range gr {
			b.dgamma[j] += gr[j] * hr[j]
			b.dbeta[j] += gr[j]
		}
	}
	if accumulate {
		dg, db := b.Gamma.grad().Data, b.Beta.grad().Data
		for j := range b.dgamma {
			dg[j] += b.dgamma[j]
			db[j] += b.dbeta[j]
		}
	}
	for i := 0; i < grad.Rows; i++ {
		gr, hr, dr := grad.Row(i), b.xhat.Row(i), b.dx.Row(i)
		for j := range gr {
			g := b.Gamma.Value.Data[j]
			dr[j] = g * b.invStd[j] / n * (n*gr[j] - b.dbeta[j] - hr[j]*b.dgamma[j])
		}
	}
	return b.dx
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
