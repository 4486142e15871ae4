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

// TestSIMDBitIdenticalToPortable is the numeric layer's contract: on a
// host with the AVX2 kernels, all four GEMM entry points give the same
// bits through them as through the portable Go kernels — for every
// remainder class of every dimension, unaligned operands, special values
// (0·NaN and 0·Inf included), overwrite and accumulate, serial and
// row-parallel. Stated for the default GOAMD64=v1; see doc.go.
func TestSIMDBitIdenticalToPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: the portable kernels are the only path")
	}
	prevProcs := runtime.GOMAXPROCS(4)
	prevFlops := gemmMinParallelFlops
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		gemmMinParallelFlops = prevFlops
		useAVX2 = true
	}()

	// Every residue of k mod 8 and n mod 8, n below one vector, one row
	// (Act) and row counts around the 4-row tile, a k beyond one MulT
	// panel, and the shipped layer shapes; then seeded random ones.
	shapes := [][3]int{
		{1, 1, 1}, {1, 63, 128}, {1, 64, 266}, {2, 9, 3}, {3, 8, 4}, {4, 7, 5},
		{5, 10, 6}, {6, 11, 7}, {7, 12, 8}, {8, 13, 9}, {9, 14, 10}, {13, 15, 11},
		{64, 63, 128}, {64, 266, 128}, {64, 64, 266}, {64, 256, 63}, {64, 128, 1},
		{5, 300, 12}, {70, 257, 300}, {66, 1, 299},
	}
	rng := rand.New(rand.NewSource(2019))
	for len(shapes) < 70 {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	for trial, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		special := []float64{0, 0.002, 0.05}[trial%3]
		a := simdTestMat(rng, m, k, trial%4, special)
		b := simdTestMat(rng, k, n, (trial+1)%4, special)
		bt := simdTestMat(rng, n, k, (trial+3)%4, special)
		ta := simdTestMat(rng, k, m, (trial+2)%4, special)
		acc := simdTestMat(rng, m, n, 1, special)
		if special > 0 {
			// A zero coefficient against a NaN and an Inf, in every operand pairing.
			kk, j := rng.Intn(k), rng.Intn(n)
			i := rng.Intn(m)
			a.Set(i, kk, 0)
			b.Set(kk, j, math.NaN())
			bt.Set(j, kk, math.Inf(1))
			ta.Set(kk, i, 0)
		}

		run := func(simd bool, minFlops int) [4]*Matrix {
			useAVX2, gemmMinParallelFlops = simd, minFlops
			return [4]*Matrix{
				Mul(simdTestMat(rng, m, n, 3, 1), a, b),
				MulT(simdTestMat(rng, m, n, 1, 1), a, bt),
				TMul(simdTestMat(rng, m, n, 2, 1), ta, b),
				TMulAdd(acc.Clone(), ta, b),
			}
		}
		want := run(false, 1<<62)
		for _, mode := range []struct {
			name     string
			simd     bool
			minFlops int
		}{
			{"simd serial", true, 1 << 62},
			{"simd parallel", true, 0},
			{"portable parallel", false, 0},
		} {
			got := run(mode.simd, mode.minFlops)
			for op, name := range []string{"Mul", "MulT", "TMul", "TMulAdd"} {
				if at := sameBits(got[op], want[op]); at >= 0 {
					t.Fatalf("%s %dx%dx%d (%s): element %d = %v (%#x), portable serial %v (%#x)",
						name, m, k, n, mode.name, at,
						got[op].Data[at], math.Float64bits(got[op].Data[at]),
						want[op].Data[at], math.Float64bits(want[op].Data[at]))
				}
			}
		}
	}
}
