package ottertune

import (
	"math/rand"

	"cdbtune/internal/mat"
	"cdbtune/internal/nn"
)

// dnnScorer is the "OtterTune with deep learning" variant from Figure 1:
// the pipeline is unchanged but the regression stage is a feed-forward
// network instead of GP regression. It remains a pipelined supervised
// model — the paper's point is that swapping in deep learning does not fix
// the pipeline's reliance on high-quality samples.
type dnnScorer struct {
	net         *nn.Network
	yMean, yStd float64
	rng         *rand.Rand
}

// fitDNN trains a small MLP regressor config → throughput.
func fitDNN(x *mat.Matrix, y []float64, rng *rand.Rand) *dnnScorer {
	d := x.Cols
	net := nn.NewNetwork(
		nn.NewDense(d, 64), nn.NewTanh(),
		nn.NewDense(64, 32), nn.NewTanh(),
		nn.NewDense(32, 1),
	)
	net.InitUniform(rng, 0.2)
	opt := nn.NewAdam(net, 5e-3)

	s := &dnnScorer{net: net, rng: rng}
	s.yMean = mat.Mean(y)
	s.yStd = mat.Stddev(y)
	if s.yStd == 0 {
		s.yStd = 1
	}
	n := x.Rows
	target := mat.New(n, 1)
	for i, v := range y {
		target.Data[i] = (v - s.yMean) / s.yStd
	}
	const epochs = 150
	for ep := 0; ep < epochs; ep++ {
		out := net.Forward(x.Clone(), true)
		_, grad := nn.MSELoss(out, target)
		net.Backward(grad)
		_, scale := net.ClipScale(5)
		opt.Sweep(scale, nil, 0)
	}
	return s
}

// score implements the surrogate interface: predicted mean plus a small
// exploration bonus (the network has no calibrated uncertainty, so the
// bonus is random — one of the variant's structural weaknesses).
func (s *dnnScorer) score(q []float64, best float64) float64 {
	x := mat.FromSlice(1, len(q), append([]float64(nil), q...))
	pred := s.net.Forward(x, false).Data[0]*s.yStd + s.yMean
	return pred - best + 0.05*s.yStd*s.rng.Float64()
}
