package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cdbtune/internal/mat"
)

func TestBatchNormSingleSampleTrainingFallsBackToRunningStats(t *testing.T) {
	bn := NewBatchNorm(2)
	bn.RunningMean = []float64{1, 2}
	bn.RunningVar = []float64{4, 9}
	x := mat.FromSlice(1, 2, []float64{3, 8})
	// Batch of one in training mode cannot compute batch statistics.
	y := bn.Forward(x, true)
	want := []float64{(3.0 - 1) / 2, (8.0 - 2) / 3}
	for i := range want {
		if math.Abs(y.Data[i]-want[i]) > 1e-3 {
			t.Fatalf("y[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	// Backward in that mode treats the stats as constants and must not
	// panic or return NaN.
	grad := mat.FromSlice(1, 2, []float64{1, 1})
	dx := bn.Backward(grad)
	for _, v := range dx.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient in eval-mode backward")
		}
	}
}

func TestDropoutZeroProbabilityIsIdentity(t *testing.T) {
	d := NewDropout(0, rand.New(rand.NewSource(1)))
	x := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	y := d.Forward(x, true)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("p=0 dropout changed values")
		}
	}
	g := mat.FromSlice(2, 2, []float64{5, 6, 7, 8})
	back := d.Backward(g)
	for i := range g.Data {
		if back.Data[i] != g.Data[i] {
			t.Fatal("p=0 dropout changed gradient")
		}
	}
}

func TestMSELossShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSELoss(mat.New(2, 2), mat.New(2, 3))
}

func TestHuberLossShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HuberLoss(mat.New(1, 2), mat.New(2, 1), 1)
}

func TestLoadTruncatedStream(t *testing.T) {
	n := NewNetwork(NewDense(2, 2))
	if err := n.Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream must error")
	}
}

func TestLoadWrongParamShape(t *testing.T) {
	src := NewNetwork(NewDense(2, 3))
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewNetwork(NewDense(3, 2))
	if err := dst.Load(&buf); err == nil {
		t.Fatal("mismatched parameter shapes must error")
	}
}

func TestSoftUpdateMismatchedPanics(t *testing.T) {
	a := NewNetwork(NewDense(2, 2))
	for name, b := range map[string]*Network{
		"layer count": NewNetwork(NewDense(2, 2), NewDense(2, 2)),
		// Same tensor count, shorter tensors: the sweep's kernel writes
		// the target unchecked, so this must be caught before it runs.
		"tensor size": NewNetwork(NewDense(1, 2)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch: expected panic", name)
				}
			}()
			NewAdam(a, 1e-3).Sweep(1, b, 0.5)
		}()
	}
}

func TestClipGradientsDisabled(t *testing.T) {
	n := NewNetwork(NewDense(2, 2))
	n.ZeroGrad()
	for _, p := range n.Params() {
		p.Grad.Fill(100)
	}
	if norm, scale := n.ClipScale(0); scale != 1 || norm <= 100 { // disabled
		t.Fatalf("maxNorm<=0 must not clip: norm %v, scale %v", norm, scale)
	}
}

func TestAdamWeightDecayShrinksIdleWeights(t *testing.T) {
	n := NewNetwork(NewDense(1, 1))
	d := n.Layers[0].(*Dense)
	d.W.Value.Fill(10)
	opt := NewAdam(n, 0.1)
	opt.WeightDecay = 1
	for i := 0; i < 50; i++ {
		// Zero task gradient: only decay acts.
		opt.Step()
	}
	if math.Abs(d.W.Value.Data[0]) >= 10 {
		t.Fatalf("weight decay inert: %v", d.W.Value.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	n := NewNetwork(NewDense(1, 1))
	d := n.Layers[0].(*Dense)
	d.W.Value.Fill(10)
	opt := NewSGD(n, 0.1, 0)
	opt.WeightDecay = 0.5
	opt.Step()
	// w ← w − lr·decay·w = 10 − 0.1·0.5·10 = 9.5
	if math.Abs(d.W.Value.Data[0]-9.5) > 1e-12 {
		t.Fatalf("w = %v, want 9.5", d.W.Value.Data[0])
	}
}
