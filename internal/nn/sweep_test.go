package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
)

// The four post-backward passes as they stood before Adam.Sweep fused
// them, kept here verbatim (minus the optimizer's goroutine fan-out, which
// never changed a bit) as the reference the sweep is held to.

func refClipGradients(n *Network, maxNorm float64) float64 {
	var total float64
	for _, p := range n.Params() {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range n.Params() {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

func refAdamStep(o *Adam) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range o.params {
		wd := o.WeightDecay
		if decayExempt(p) {
			wd = 0
		}
		val, grad := p.Value.Data, p.Grad.Data
		mi, vi := o.m[i], o.v[i]
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

func refSoftUpdateFrom(n, src *Network, tau float64) {
	sp, dp := src.Params(), n.Params()
	for i := range sp {
		d, s := dp[i].Value.Data, sp[i].Value.Data
		for j := range d {
			d[j] = tau*s[j] + (1-tau)*d[j]
		}
	}
}

func refMaxAbsWeight(n *Network) float64 {
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

// tensorLayer is a Layer that is nothing but its parameters, so a test
// network can have tensors of any length and name.
type tensorLayer struct{ ps []*Param }

func (l *tensorLayer) Forward(x *mat.Matrix, train bool) *mat.Matrix { return x }
func (l *tensorLayer) Backward(g *mat.Matrix) *mat.Matrix            { return g }
func (l *tensorLayer) Params() []*Param                              { return l.ps }

// sweepSpecials are the values a lane must carry exactly: signed zeros,
// denormals, the largest finite value, infinities and NaN.
var sweepSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -3e-310, 1e-308, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// sweepRig is one online network, its target and its optimizer.
type sweepRig struct {
	net, target *Network
	opt         *Adam
}

// newSweepRig builds tensors of the given lengths, named in rotation so
// that weight-decayed ("W") and decay-exempt ("b", "beta", "gamma")
// tensors of every length class occur, with seeded values and moments.
func newSweepRig(seed int64, lengths []int) *sweepRig {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"W", "b", "W", "beta", "W", "gamma"}
	build := func() *Network {
		l := &tensorLayer{}
		for i, n := range lengths {
			p := newParam(names[i%len(names)], 1, n)
			for j := range p.Value.Data {
				p.Value.Data[j] = rng.NormFloat64()
			}
			l.ps = append(l.ps, p)
		}
		return NewNetwork(l)
	}
	r := &sweepRig{net: build(), target: build()}
	r.opt = NewAdam(r.net, 1e-3)
	r.opt.WeightDecay = 1e-4
	r.net.ZeroGrad() // allocates the gradients fillGrads writes
	r.opt.allocMoments()
	for i := range r.opt.m {
		for j := range r.opt.m[i] {
			r.opt.m[i][j] = 0.1 * rng.NormFloat64()
			r.opt.v[i][j] = 0.01 * rng.Float64()
		}
	}
	return r
}

// fillGrads draws every gradient at the given magnitude and, with chance
// special per element, replaces a gradient, a weight or a first moment
// by one of sweepSpecials — a gradient only by one of the first
// gradSpecials of them, so a case can keep the gradient norm finite (and
// the clip factor an ordinary number) while weights and moments go
// non-finite.
func (r *sweepRig) fillGrads(rng *rand.Rand, magnitude, special float64, gradSpecials int) {
	for i, p := range r.net.Params() {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = magnitude * rng.NormFloat64()
			if rng.Float64() < special {
				s := sweepSpecials[rng.Intn(len(sweepSpecials))]
				switch rng.Intn(3) {
				case 0:
					p.Grad.Data[j] = sweepSpecials[rng.Intn(gradSpecials)]
				case 1:
					p.Value.Data[j] = s
				case 2:
					r.opt.m[i][j] = s
				}
			}
		}
	}
}

// state flattens everything a sweep writes, labelled for error messages.
func (r *sweepRig) state() map[string][]float64 {
	st := map[string][]float64{}
	for i, p := range r.net.Params() {
		k := fmt.Sprintf("tensor %d (%s, len %d) ", i, p.Name, len(p.Value.Data))
		st[k+"w"], st[k+"g"] = p.Value.Data, p.Grad.Data
		st[k+"m"], st[k+"v"] = r.opt.m[i], r.opt.v[i]
		st[k+"w'"] = r.target.Params()[i].Value.Data
	}
	return st
}

// sameFloat is bit equality, any NaN matching any NaN: which payload an
// x86 operation propagates is pinned by neither side.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

func diffState(t *testing.T, what string, got, want *sweepRig) {
	t.Helper()
	gs := got.state()
	for k, w := range want.state() {
		for j := range w {
			if g := gs[k][j]; !sameFloat(g, w[j]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), four passes give %v (%#x)",
					what, k, j, g, math.Float64bits(g), w[j], math.Float64bits(w[j]))
			}
		}
	}
}

// TestSweepMatchesFourPasses holds ClipScale + Adam.Sweep to the four
// passes it replaced, bit for bit, on whichever path the host takes (the
// AVX2 kernel with a scalar tail, or the scalar loop alone): tensor
// lengths 0–9 and around larger multiples of four, decayed and
// decay-exempt tensors, clipped (scale < 1) and unclipped (scale 1)
// steps, several steps in a row so the moments and bias corrections
// move, with and without special values — ±0, denormals, ±Inf bit-equal,
// NaN where the reference has NaN — and the returned max |w| equal to the
// reference scan, NaN exactly when it is.
func TestSweepMatchesFourPasses(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 31, 64, 66, 255, 1001}
	finiteGrads := 5 // ±0 and the denormals
	for _, tc := range []struct {
		name               string
		magnitude, special float64
		gradSpecials       int
	}{
		{"unclipped", 0.01, 0, finiteGrads},
		{"clipped", 10, 0, finiteGrads},
		{"unclipped specials", 0.01, 0.03, finiteGrads},
		{"clipped specials", 10, 0.03, finiteGrads},
		{"non-finite gradients", 10, 0.03, len(sweepSpecials)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := newSweepRig(5, lengths), newSweepRig(5, lengths)
			rngG, rngW := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
			const maxNorm, tau = 5, 0.01
			for step := 0; step < 4; step++ {
				got.fillGrads(rngG, tc.magnitude, tc.special, tc.gradSpecials)
				want.fillGrads(rngW, tc.magnitude, tc.special, tc.gradSpecials)

				wantNorm := refClipGradients(want.net, maxNorm)
				refAdamStep(want.opt)
				refSoftUpdateFrom(want.target, want.net, tau)
				wantMax := refMaxAbsWeight(want.net)

				norm, scale := got.net.ClipScale(maxNorm)
				gotMax := got.opt.Sweep(scale, got.target, tau)

				what := fmt.Sprintf("step %d", step)
				if !sameFloat(norm, wantNorm) {
					t.Fatalf("%s: norm %v, ClipGradients returned %v", what, norm, wantNorm)
				}
				if clipped := scale > 0 && scale < 1; tc.gradSpecials == finiteGrads && clipped != (tc.magnitude > 1) {
					t.Fatalf("%s: scale %v does not exercise the %s case", what, scale, tc.name)
				}
				diffState(t, what, got, want)
				if !sameFloat(gotMax, wantMax) {
					t.Fatalf("%s: max |w| = %v, MaxAbsWeight scan gives %v", what, gotMax, wantMax)
				}
			}
		})
	}
}

// TestStepIsSweepWithoutTarget: Adam.Step is the sweep at scale 1 with no
// target network — the same bits as the old Step, and nothing else written.
func TestStepIsSweepWithoutTarget(t *testing.T) {
	lengths := []int{3, 8, 21, 130}
	got, want := newSweepRig(9, lengths), newSweepRig(9, lengths)
	rngG, rngW := rand.New(rand.NewSource(10)), rand.New(rand.NewSource(10))
	for step := 0; step < 3; step++ {
		got.fillGrads(rngG, 1, 0.02, len(sweepSpecials))
		want.fillGrads(rngW, 1, 0.02, len(sweepSpecials))
		got.opt.Step()
		refAdamStep(want.opt)
		diffState(t, fmt.Sprintf("step %d", step), got, want)
	}
}

// TestSweepMaxWeightNaN pins the health signal: the returned max is NaN as
// soon as any weight is — whether the NaN sits in a kernel block or the
// scalar tail, before or after the finite maximum, in the first tensor or
// the last, and when every weight after a finite maximum is NaN — and is
// the true maximum otherwise, up to the largest finite value. (An infinite
// weight does not survive an Adam step — 0·Inf or Inf/Inf makes it NaN on
// every path — so Inf is not a value the maximum can take.)
func TestSweepMaxWeightNaN(t *testing.T) {
	lengths := []int{11, 6, 3}
	type at struct{ tensor, j int }
	for _, tc := range []struct {
		name string
		nan  []at
		huge *at
	}{
		{"finite", nil, nil},
		{"huge in a kernel block", nil, &at{0, 2}},
		{"huge in a scalar tail", nil, &at{1, 5}},
		{"nan in first kernel block", []at{{0, 1}}, nil},
		{"nan in last kernel block", []at{{0, 7}}, nil},
		{"nan in scalar tail", []at{{0, 10}}, nil},
		{"nan in last tensor", []at{{2, 2}}, nil},
		{"nan before the max", []at{{0, 0}}, &at{1, 0}},
		{"nan after the max", []at{{2, 0}}, &at{0, 0}},
		{"all nan after a finite max", []at{{0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10},
			{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 0}, {2, 1}, {2, 2}}, &at{0, 1}},
	} {
		r := newSweepRig(12, lengths)
		for _, a := range tc.nan {
			r.net.Params()[a.tensor].Value.Data[a.j] = math.NaN()
		}
		if tc.huge != nil {
			r.net.Params()[tc.huge.tensor].Value.Data[tc.huge.j] = -math.MaxFloat64
		}
		got := r.opt.Sweep(1, r.target, 0.01)
		want := refMaxAbsWeight(r.net) // after the update, as StepInfo reports it
		if !sameFloat(got, want) {
			t.Errorf("%s: Sweep returned max |w| = %v, the scan gives %v", tc.name, got, want)
		}
		if wantNaN := len(tc.nan) > 0; math.IsNaN(got) != wantNaN {
			t.Errorf("%s: max |w| = %v, want NaN: %v", tc.name, got, wantNaN)
		} else if !wantNaN && tc.huge != nil && got < 1e308 {
			t.Errorf("%s: max |w| = %v misses the huge weight", tc.name, got)
		}
	}
}

// TestSweepKernelMatchesScalar holds the AVX2 kernel to sweepScalar, the
// written form of the update rule, lane for lane: every length 0–9 and
// 4k+r, with and without a target, unaligned slices, special values.
func TestSweepKernelMatchesScalar(t *testing.T) {
	if !mat.HasAVX2() {
		t.Skip("host SIMD level is portable: sweepScalar is the only path and the AVX2 sweep kernel is NOT covered by this run")
	}
	rng := rand.New(rand.NewSource(77))
	draw := func(n, off int, special float64) []float64 {
		s := make([]float64, off+n)[off:]
		for i := range s {
			s[i] = rng.NormFloat64()
			if rng.Float64() < special {
				s[i] = sweepSpecials[rng.Intn(len(sweepSpecials))]
			}
		}
		return s
	}
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 102, 103, 1000, 1003}
	for trial, n := range lengths {
		for _, special := range []float64{0, 0.05} {
			for _, withTarget := range []bool{true, false} {
				c := &sweepConsts{
					scale: []float64{1, 0.37}[trial%2], wd: []float64{1e-4, 0}[trial/2%2],
					beta1: 0.9, omBeta1: 1 - 0.9, beta2: 0.999, omBeta2: 1 - 0.999,
					bc1: 1 - math.Pow(0.9, 3), bc2: 1 - math.Pow(0.999, 3),
					lr: 1e-3, eps: 1e-8, tau: 0.01, omTau: 1 - 0.01,
				}
				w, g, m := draw(n, trial%3, special), draw(n, (trial+1)%3, special), draw(n, 1, special)
				v, tgt := draw(n, 2, 0), draw(n, (trial+2)%3, special)
				for i := range v {
					v[i] *= v[i]
				}
				if !withTarget {
					tgt = nil
				}
				w2, g2, m2, v2, tgt2 := clone(w), clone(g), clone(m), clone(v), clone(tgt)
				got := sweep(w, g, m, v, tgt, c, 0)
				want := sweepScalar(w2, g2, m2, v2, tgt2, c, 0)
				what := fmt.Sprintf("len %d special %v target %v", n, special, withTarget)
				for name, pair := range map[string][2][]float64{
					"w": {w, w2}, "g": {g, g2}, "m": {m, m2}, "v": {v, v2}, "w'": {tgt, tgt2},
				} {
					for j := range pair[1] {
						if !sameFloat(pair[0][j], pair[1][j]) {
							t.Fatalf("%s: %s[%d] = %v (%#x) through the kernel, %v (%#x) scalar", what, name, j,
								pair[0][j], math.Float64bits(pair[0][j]), pair[1][j], math.Float64bits(pair[1][j]))
						}
					}
				}
				if gf, wf := math.Float64frombits(got), math.Float64frombits(want); !sameFloat(gf, wf) {
					t.Fatalf("%s: max |w| = %v through the kernel, %v scalar", what, gf, wf)
				}
			}
		}
	}
	t.Logf("avx2 sweep kernel bit-identical to sweepScalar over %d lengths", len(lengths))
}
