package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// simdTestMat returns an r×c matrix whose Data starts off elements into a
// larger allocation — an odd off makes every row start 8 bytes past a
// 16-byte boundary, so no vector load in the SIMD kernels is aligned. Most
// values are ordinary normals; special, in [0, 1], is the chance that an
// element is instead one of ±0, a denormal, ±Inf or NaN.
func simdTestMat(rng *rand.Rand, r, c, off int, special float64) *Matrix {
	specials := []float64{
		0, math.Copysign(0, -1),
		5e-324, -3e-310, 1e-308,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	buf := make([]float64, off+r*c)
	m := FromSlice(r, c, buf[off:])
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*3)
		if rng.Float64() < special {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// sameBits reports the first index where got and want differ as bit
// patterns, treating every NaN as equal to every other NaN (which of two
// NaN operands an x86 add propagates depends on operand order, which
// neither path pins), or -1.
func sameBits(got, want *Matrix) int {
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// TestSIMDBitIdenticalToPortable is the numeric layer's contract: at
// every SIMD level the host has, all four GEMM entry points give the same
// bits as the portable Go kernels — for every remainder class of every
// dimension against each tile shape, unaligned operands, special values
// (0·NaN and 0·Inf included), overwrite and accumulate, serial and
// row-parallel. A level the host lacks is a logged skip, never a silent
// pass. Stated for the default GOAMD64=v1; see doc.go.
func TestSIMDBitIdenticalToPortable(t *testing.T) {
	host := simd
	prevProcs := runtime.GOMAXPROCS(4)
	prevFlops := gemmMinParallelFlops
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		gemmMinParallelFlops = prevFlops
		simd = host
	}()

	// Every residue of k mod 8, of n mod 16 and of m mod 8; n below one
	// vector and around one and two 16-column blocks; one row (Act) and
	// row counts around the 4- and 8-row tiles; k on both sides of the
	// 128- and 256-deep MulT panels; the shipped layer shapes (264 is a
	// whole number of 8-column tiles but not of 16-column ones); then
	// seeded random ones.
	shapes := [][3]int{
		{1, 1, 1}, {1, 63, 128}, {1, 64, 266}, {2, 9, 3}, {3, 8, 4}, {4, 7, 5},
		{5, 10, 6}, {6, 11, 7}, {7, 12, 8}, {8, 13, 9}, {9, 14, 10}, {13, 15, 11},
		{64, 63, 128}, {64, 266, 128}, {64, 64, 266}, {64, 256, 63}, {64, 128, 1},
		{5, 300, 12}, {70, 257, 300}, {66, 1, 299},
		{10, 127, 15}, {11, 128, 16}, {12, 129, 17}, {14, 257, 31}, {15, 129, 264}, {16, 127, 266},
	}
	for r := 0; r < 16; r++ {
		shapes = append(shapes, [3]int{17 + r%8, 5 + r, 32 + r}, [3]int{8 + r, 130 + r, 16 + r})
	}
	rng := rand.New(rand.NewSource(2019))
	for len(shapes) < 100 {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	type product struct {
		m, k, n          int
		a, b, bt, ta, ac *Matrix
		want             [4]*Matrix
	}
	run := func(p *product, level simdLevel, minFlops int) [4]*Matrix {
		simd, gemmMinParallelFlops = level, minFlops
		return [4]*Matrix{
			Mul(simdTestMat(rng, p.m, p.n, 3, 1), p.a, p.b),
			MulT(simdTestMat(rng, p.m, p.n, 1, 1), p.a, p.bt),
			TMul(simdTestMat(rng, p.m, p.n, 2, 1), p.ta, p.b),
			TMulAdd(p.ac.Clone(), p.ta, p.b),
		}
	}
	check := func(t *testing.T, p *product, mode string, got [4]*Matrix) {
		t.Helper()
		for op, name := range []string{"Mul", "MulT", "TMul", "TMulAdd"} {
			if at := sameBits(got[op], p.want[op]); at >= 0 {
				t.Fatalf("%s %dx%dx%d (%s): element %d = %v (%#x), portable serial %v (%#x)",
					name, p.m, p.k, p.n, mode, at,
					got[op].Data[at], math.Float64bits(got[op].Data[at]),
					p.want[op].Data[at], math.Float64bits(p.want[op].Data[at]))
			}
		}
	}
	var products []*product
	for trial, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		special := []float64{0, 0.002, 0.05}[trial%3]
		p := &product{
			m: m, k: k, n: n,
			a:  simdTestMat(rng, m, k, trial%4, special),
			b:  simdTestMat(rng, k, n, (trial+1)%4, special),
			bt: simdTestMat(rng, n, k, (trial+3)%4, special),
			ta: simdTestMat(rng, k, m, (trial+2)%4, special),
			ac: simdTestMat(rng, m, n, 1, special),
		}
		if special > 0 {
			// A zero coefficient against a NaN and an Inf, in every operand pairing.
			kk, j := rng.Intn(k), rng.Intn(n)
			i := rng.Intn(m)
			p.a.Set(i, kk, 0)
			p.b.Set(kk, j, math.NaN())
			p.bt.Set(j, kk, math.Inf(1))
			p.ta.Set(kk, i, 0)
		}
		p.want = run(p, simdPortable, 1<<62)
		check(t, p, "portable parallel", run(p, simdPortable, 0))
		products = append(products, p)
	}
	for _, level := range []simdLevel{simdAVX2, simdAVX512} {
		t.Run(level.String(), func(t *testing.T) {
			if level > host {
				t.Skipf("host SIMD level is %v: the %v kernels cannot run here and are NOT covered by this run", host, level)
			}
			for _, p := range products {
				check(t, p, "serial", run(p, level, 1<<62))
				check(t, p, "parallel", run(p, level, 0))
			}
			t.Logf("%v kernels bit-identical to portable over %d shapes (host level %v)", level, len(products), host)
		})
	}
}
