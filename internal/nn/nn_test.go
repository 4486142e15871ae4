package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
)

// numericalGrad estimates d(loss)/d(theta) by central differences, where
// loss = MSE(net(x), target) evaluated in training mode with dropout
// disabled (p=0) so the function is deterministic.
func numericalGrad(t *testing.T, net *Network, x, target *mat.Matrix, p *Param, idx int) float64 {
	t.Helper()
	const h = 1e-5
	orig := p.Value.Data[idx]
	p.Value.Data[idx] = orig + h
	lossPlus, _ := MSELoss(net.Forward(x.Clone(), true), target)
	p.Value.Data[idx] = orig - h
	lossMinus, _ := MSELoss(net.Forward(x.Clone(), true), target)
	p.Value.Data[idx] = orig
	return (lossPlus - lossMinus) / (2 * h)
}

func checkGradients(t *testing.T, net *Network, inDim, outDim, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	net.InitUniform(rng, 0.5)
	x := mat.New(batch, inDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := mat.New(batch, outDim)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	net.ZeroGrad()
	out := net.Forward(x.Clone(), true)
	_, grad := MSELoss(out, target)
	net.Backward(grad)
	for pi, p := range net.Params() {
		for _, idx := range sampleIndices(rng, len(p.Value.Data), 6) {
			want := numericalGrad(t, net, x, target, p, idx)
			got := p.Grad.Data[idx]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("param %d (%s) idx %d: analytic %g, numeric %g", pi, p.Name, idx, got, want)
			}
		}
	}
}

func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

func TestDenseGradient(t *testing.T) {
	checkGradients(t, NewNetwork(NewDense(4, 3)), 4, 3, 5)
}

func TestDeepTanhGradient(t *testing.T) {
	net := NewNetwork(NewDense(5, 8), NewTanh(), NewDense(8, 6), NewTanh(), NewDense(6, 2))
	checkGradients(t, net, 5, 2, 7)
}

func TestReLUGradient(t *testing.T) {
	net := NewNetwork(NewDense(4, 8), NewReLU(), NewDense(8, 3))
	checkGradients(t, net, 4, 3, 6)
}

func TestLeakyReLUGradient(t *testing.T) {
	net := NewNetwork(NewDense(4, 8), NewLeakyReLU(0.2), NewDense(8, 3))
	checkGradients(t, net, 4, 3, 6)
}

func TestSigmoidGradient(t *testing.T) {
	net := NewNetwork(NewDense(3, 5), NewSigmoid(), NewDense(5, 2))
	checkGradients(t, net, 3, 2, 4)
}

func TestBatchNormGradient(t *testing.T) {
	net := NewNetwork(NewDense(4, 6), NewBatchNorm(6), NewTanh(), NewDense(6, 2))
	checkGradients(t, net, 4, 2, 8)
}

func TestReLUForward(t *testing.T) {
	r := NewLeakyReLU(0.1)
	x := mat.FromSlice(1, 3, []float64{-2, 0, 3})
	y := r.Forward(x, true)
	want := []float64{-0.2, 0, 3}
	for i := range want {
		if math.Abs(y.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("leaky relu[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
}

func TestTanhBounds(t *testing.T) {
	tl := NewTanh()
	x := mat.FromSlice(1, 2, []float64{100, -100})
	y := tl.Forward(x, true)
	if y.Data[0] != 1 || y.Data[1] != -1 {
		t.Fatalf("tanh saturation = %v", y.Data)
	}
}

func TestSigmoidRange(t *testing.T) {
	s := NewSigmoid()
	x := mat.FromSlice(1, 3, []float64{-50, 0, 50})
	y := s.Forward(x, true)
	if y.Data[0] > 1e-10 || math.Abs(y.Data[1]-0.5) > 1e-12 || y.Data[2] < 1-1e-10 {
		t.Fatalf("sigmoid = %v", y.Data)
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(0.5, rng)
	x := mat.New(10, 100)
	x.Fill(1)
	yTrain := d.Forward(x, true)
	var zeros, scaled int
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("dropout produced value %v, want 0 or 2", v)
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Fatalf("dropout mask degenerate: %d zeros, %d kept", zeros, scaled)
	}
	frac := float64(zeros) / float64(len(yTrain.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout rate %v, want ≈0.5", frac)
	}
	yEval := d.Forward(x, false)
	for _, v := range yEval.Data {
		if v != 1 {
			t.Fatalf("eval-mode dropout changed input: %v", v)
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(2)
	x := mat.FromSlice(4, 2, []float64{1, 10, 2, 20, 3, 30, 4, 40})
	y := bn.Forward(x, true)
	for j := 0; j < 2; j++ {
		var mean, sq float64
		for i := 0; i < 4; i++ {
			mean += y.At(i, j)
		}
		mean /= 4
		for i := 0; i < 4; i++ {
			d := y.At(i, j) - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean = %v, want 0", j, mean)
		}
		if math.Abs(sq/4-1) > 1e-3 {
			t.Fatalf("col %d var = %v, want ≈1", j, sq/4)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(1)
	rng := rand.New(rand.NewSource(1))
	// Train on batches with mean 5, std 2.
	for i := 0; i < 500; i++ {
		x := mat.New(16, 1)
		for j := range x.Data {
			x.Data[j] = 5 + 2*rng.NormFloat64()
		}
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunningMean[0]-5) > 0.3 {
		t.Fatalf("running mean = %v, want ≈5", bn.RunningMean[0])
	}
	if math.Abs(bn.RunningVar[0]-4) > 0.8 {
		t.Fatalf("running var = %v, want ≈4", bn.RunningVar[0])
	}
	x := mat.FromSlice(1, 1, []float64{5})
	y := bn.Forward(x, false)
	if math.Abs(y.Data[0]) > 0.1 {
		t.Fatalf("eval output for mean input = %v, want ≈0", y.Data[0])
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(NewDense(2, 16), NewTanh(), NewDense(16, 1), NewSigmoid())
	net.InitUniform(rng, 0.7)
	opt := NewAdam(net, 0.05)
	x := mat.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	target := mat.FromSlice(4, 1, []float64{0, 1, 1, 0})
	var loss float64
	for i := 0; i < 2000; i++ {
		out := net.Forward(x.Clone(), true)
		var grad *mat.Matrix
		loss, grad = MSELoss(out, target)
		net.Backward(grad)
		opt.Step()
	}
	if loss > 0.01 {
		t.Fatalf("XOR not learned: final loss %v", loss)
	}
	out := net.Forward(x.Clone(), false)
	for i, want := range []float64{0, 1, 1, 0} {
		if math.Abs(out.Data[i]-want) > 0.2 {
			t.Fatalf("XOR output[%d] = %v, want %v", i, out.Data[i], want)
		}
	}
}

func TestSGDMomentumLearnsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(NewDense(3, 1))
	net.InitUniform(rng, 0.1)
	opt := NewSGD(net, 0.05, 0.9)
	trueW := []float64{1.5, -2, 0.5}
	for i := 0; i < 800; i++ {
		x := mat.New(8, 3)
		target := mat.New(8, 1)
		for r := 0; r < 8; r++ {
			row := x.Row(r)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			target.Data[r] = mat.Dot(row, trueW) + 0.7
		}
		out := net.Forward(x, true)
		_, grad := MSELoss(out, target)
		net.Backward(grad)
		opt.Step()
	}
	d := net.Layers[0].(*Dense)
	for j, w := range trueW {
		if math.Abs(d.W.Value.At(j, 0)-w) > 0.05 {
			t.Fatalf("weight %d = %v, want %v", j, d.W.Value.At(j, 0), w)
		}
	}
	if math.Abs(d.B.Value.Data[0]-0.7) > 0.05 {
		t.Fatalf("bias = %v, want 0.7", d.B.Value.Data[0])
	}
}

func TestSoftUpdate(t *testing.T) {
	a := NewNetwork(NewDense(2, 2))
	b := NewNetwork(NewDense(2, 2))
	a.Params()[0].Value.Fill(1)
	b.Params()[0].Value.Fill(0)
	// No gradient and no decay: the sweep leaves a where it is and blends
	// it into the target.
	NewAdam(a, 1e-3).Sweep(1, b, 0.1)
	if v := a.Params()[0].Value.Data[0]; v != 1 {
		t.Fatalf("zero-gradient sweep moved the online weight to %v", v)
	}
	if v := b.Params()[0].Value.Data[0]; math.Abs(v-0.1) > 1e-12 {
		t.Fatalf("soft update = %v, want 0.1", v)
	}
	a.CopyTo(b)
	if v := b.Params()[0].Value.Data[0]; v != 1 {
		t.Fatalf("CopyTo = %v, want 1", v)
	}
}

func TestClipGradients(t *testing.T) {
	net := NewNetwork(NewDense(2, 2))
	net.ZeroGrad()
	for _, p := range net.Params() {
		p.Grad.Fill(10)
	}
	pre, scale := net.ClipScale(1)
	if pre <= 1 {
		t.Fatalf("pre-clip norm = %v, want > 1", pre)
	}
	if math.Abs(pre*scale-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", pre*scale)
	}
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 10 {
				t.Fatalf("ClipScale wrote a gradient: %v", g)
			}
		}
	}
}

func TestHuberLoss(t *testing.T) {
	pred := mat.FromSlice(1, 2, []float64{0, 10})
	target := mat.FromSlice(1, 2, []float64{0.5, 0})
	loss, grad := HuberLoss(pred, target, 1)
	// Element 0: |d|=0.5 ≤ 1 → 0.125; element 1: d=10 → 1*(10−0.5)=9.5.
	if math.Abs(loss-(0.125+9.5)/2) > 1e-12 {
		t.Fatalf("huber loss = %v", loss)
	}
	if math.Abs(grad.Data[0]-(-0.25)) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("huber grad = %v", grad.Data)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	build := func() *Network {
		return NewNetwork(NewDense(4, 8), NewBatchNorm(8), NewTanh(), NewDense(8, 2))
	}
	src := build()
	src.InitNormal(rng, 0.5)
	// Push some data through to move running stats.
	x := mat.New(16, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	src.Forward(x, true)

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	xe := mat.New(3, 4)
	for i := range xe.Data {
		xe.Data[i] = rng.NormFloat64()
	}
	ys := src.Forward(xe.Clone(), false)
	yd := dst.Forward(xe.Clone(), false)
	for i := range ys.Data {
		if ys.Data[i] != yd.Data[i] {
			t.Fatalf("output %d differs after reload: %v vs %v", i, ys.Data[i], yd.Data[i])
		}
	}
}

func TestLoadRejectsMismatchedArch(t *testing.T) {
	src := NewNetwork(NewDense(2, 2))
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewNetwork(NewDense(2, 2), NewDense(2, 2))
	if err := dst.Load(&buf); err == nil {
		t.Fatal("expected error loading into different architecture")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewNetwork(NewDense(10, 10), NewBatchNorm(10))
	net.InitUniform(rng, 0.1)
	d := net.Layers[0].(*Dense)
	for _, v := range d.W.Value.Data {
		if v < -0.1 || v > 0.1 {
			t.Fatalf("uniform init out of range: %v", v)
		}
	}
	for _, v := range d.B.Value.Data {
		if v != 0 {
			t.Fatalf("bias not zeroed: %v", v)
		}
	}
	bn := net.Layers[1].(*BatchNorm)
	if bn.Gamma.Value.Data[0] != 1 || bn.Beta.Value.Data[0] != 0 {
		t.Fatal("batchnorm affine params not reset")
	}
	net.InitNormal(rng, 0.01)
	var sum float64
	for _, v := range d.W.Value.Data {
		sum += math.Abs(v)
	}
	if sum/100 > 0.05 {
		t.Fatalf("normal(0,0.01) init too large: mean abs %v", sum/100)
	}
}

// TestBackwardParamsMatchesBackward pins the ParamGradOnly contract:
// BackwardParams accumulates bit-for-bit the parameter gradients Backward
// does — only the unread input gradient of the first layer is skipped.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	grads := func(params bool) []float64 {
		rng := rand.New(rand.NewSource(31))
		net := allocTestNet(rng)
		x := mat.New(8, 16)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		grad := mat.New(8, 4)
		for i := range grad.Data {
			grad.Data[i] = rng.NormFloat64()
		}
		net.Forward(x, true)
		if params {
			net.BackwardParams(grad)
		} else {
			net.Backward(grad)
		}
		var gs []float64
		for _, p := range net.Params() {
			gs = append(gs, p.Grad.Data...)
		}
		return gs
	}
	want, got := grads(false), grads(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grad[%d] = %v via BackwardParams, %v via Backward", i, got[i], want[i])
		}
	}
}
