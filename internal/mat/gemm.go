package mat

import (
	"fmt"
	"runtime"
	"sync"
)

// The GEMM kernels below are the training hot path: every Dense
// Forward/Backward and every critic pass bottoms out here. They share
// four design rules (doc.go states the contract callers may rely on):
//
//   - Full IEEE semantics: every a[i][k]·b[k][j] product is computed.
//     There is deliberately no "skip zero coefficient" short-circuit —
//     0·NaN is NaN, and the DDPG learner's NaN-batch skip and the
//     divergence Supervisor rely on non-finite values propagating
//     through matmuls instead of being silently swallowed (a ReLU-sparse
//     activation against a poisoned weight would otherwise hide the
//     corruption).
//   - k-fused blocking: the portable axpy kernels consume eight k-terms
//     per pass over the destination row (four, then one, for the
//     remainder), cutting the load/store traffic on dst eightfold
//     relative to one-axpy-per-k.
//   - Three levels, one result: on amd64 the columns below n&^3 of every
//     product go through the register-tiled SIMD kernels of gemm_amd64.s
//     — AVX-512 tiles 16 columns wide where the host has them, AVX2 tiles
//     8 wide under those and on AVX2-only hosts (simd, decided from CPUID
//     at init) — whose lanes span output columns so that each element
//     still adds its k terms in the portable kernels' order; the last n%4
//     columns, and every column on any other host, go through the
//     portable kernels. All three levels agree bit for bit.
//   - Row partitioning: above gemmMinParallelFlops of work (and with
//     GOMAXPROCS > 1) the destination rows are split across goroutines.
//     Each row is produced by exactly one worker running the identical
//     serial kernel, so the parallel result is bit-for-bit equal to the
//     serial one, at any worker count.
//
// Each call returns only when dst is fully written; dst must not alias
// a or b. Concurrent calls are safe as long as their dst regions are
// disjoint.

// simdLevel orders the kernel paths under the GEMM entry points: each
// level can run every kernel of the levels below it.
type simdLevel int

const (
	simdPortable simdLevel = iota // the Go kernels in this file
	simdAVX2                      // 4×8 YMM tiles
	simdAVX512                    // 8×16 ZMM tiles over the AVX2 ones
)

func (l simdLevel) String() string {
	return [...]string{"portable", "avx2", "avx512"}[l]
}

// HasAVX2 reports whether the host runs AVX2 kernels (the level is avx2
// or above). It is how internal/nn's optimizer sweep shares this
// package's one CPUID probe instead of making a second.
func HasAVX2() bool { return simd >= simdAVX2 }

// gemmMinParallelFlops is the approximate kernel cost (2·m·k·n floating
// point operations) below which goroutine fan-out costs more than it
// buys. Waking a parked processor for the spawned chunk costs a roughly
// fixed ≈ 120 µs on the 2-vCPU box the benchmark runs on, whichever
// kernels then run, so the figure follows the kernel level — one value
// each, measured in EXPERIMENTS.md ("Parallel threshold"):
//
//   - portable, 1<<21: the products from 64×128×128 up still gain.
//   - avx2, 1<<24: the tiles do four times the flops in the wake-up
//     time, and a train step — whose second core is already busy with
//     the overlapped target pass — is fastest with every batch-64
//     product of the shipped networks (the largest, 64×256×256, is
//     1<<23) left serial.
//   - avx512, 1<<25: the 16-column tiles are ≈ 1.5× faster again, so
//     the same wake-up is that many more flops: a 128×256×256 product
//     (1<<24) loses 8 % split, 256×256×256 (1<<25) gains 15 % and
//     256×512×512 (1<<27) 1.7×; the batch-64 products stay serial a
//     fortiori.
//
// It is a variable so tests can force the parallel path.
var gemmMinParallelFlops = [...]int{simdPortable: 1 << 21, simdAVX2: 1 << 24, simdAVX512: 1 << 25}[simd]

// gemmParallelWorthwhile reports whether a kernel of the given size
// should fan out across goroutines. It is checked before the dispatch
// closure is built, so the serial path allocates nothing — the nn
// package's AllocsPerRun assertions depend on that.
func gemmParallelWorthwhile(rows, flops int) bool {
	return flops >= gemmMinParallelFlops && rows >= 2 && runtime.GOMAXPROCS(0) >= 2
}

// gemmParallelRows splits [0, rows) across GOMAXPROCS workers, running
// fn on each disjoint chunk, and returns once all chunks are done. The
// last chunk runs on the calling goroutine, which would otherwise only
// park: one spawn fewer per call, and the caller's processor stays busy.
func gemmParallelRows(rows int, fn func(i0, i1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	i0 := 0
	for ; i0+chunk < rows; i0 += chunk {
		wg.Add(1)
		go func(i0 int) {
			defer wg.Done()
			fn(i0, i0+chunk)
		}(i0)
	}
	fn(i0, rows)
	wg.Wait()
}

// Mul computes dst = a × b. dst must be a.Rows×b.Cols and must not
// alias a or b. Every element of dst is overwritten. It returns dst
// for chaining.
func Mul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if gemmParallelWorthwhile(a.Rows, 2*a.Rows*a.Cols*b.Cols) {
		gemmParallelRows(a.Rows, func(i0, i1 int) { mulRows(dst, a, b, i0, i1) })
	} else {
		mulRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// mulRows computes rows [i0, i1) of dst = a × b: columns below
// b.Cols&^3 through the SIMD tiles where the host has them, the rest
// (every column otherwise) through the portable kernels.
func mulRows(dst, a, b *Matrix, i0, i1 int) {
	j0 := 0
	if simd > simdPortable && a.Cols > 0 {
		j0 = b.Cols &^ 3
		gemmSIMD(dst.Data, b.Cols, a.Data, a.Cols, 1, b.Data, b.Cols, a.Cols, j0, i0, i1, false)
	}
	if j0 < b.Cols {
		mulRowsPortable(dst, a, b, i0, i1, j0)
	}
}

// mulRowsPortable computes columns [j0, b.Cols) of rows [i0, i1) of
// dst = a × b with the k loop fused eight terms at a time (four for the
// remainder). j0 must be even: the axpy kernels pair columns from the
// start of the slice they are handed and sum an odd last column in a
// different order (see axpy8), so an even j0 leaves every column in the
// role it has at j0 = 0.
func mulRowsPortable(dst, a, b *Matrix, i0, i1, j0 int) {
	kTotal := a.Cols
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[j0:]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+7 < kTotal; k += 8 {
			axpy8(drow,
				b.Row(k)[j0:], b.Row(k + 1)[j0:], b.Row(k + 2)[j0:], b.Row(k + 3)[j0:],
				b.Row(k + 4)[j0:], b.Row(k + 5)[j0:], b.Row(k + 6)[j0:], b.Row(k + 7)[j0:],
				arow[k], arow[k+1], arow[k+2], arow[k+3],
				arow[k+4], arow[k+5], arow[k+6], arow[k+7])
		}
		for ; k+3 < kTotal; k += 4 {
			axpy4(drow, b.Row(k)[j0:], b.Row(k + 1)[j0:], b.Row(k + 2)[j0:], b.Row(k + 3)[j0:],
				arow[k], arow[k+1], arow[k+2], arow[k+3])
		}
		for ; k < kTotal; k++ {
			axpyUnrolled(drow, b.Row(k)[j0:], arow[k])
		}
	}
}

// axpy4 computes dst += a0·b0 + a1·b1 + a2·b2 + a3·b3 elementwise; the
// four fused terms share one load/store round trip on dst. The slice
// re-bind eliminates bounds checks in the hot loop.
func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	for ; j+1 < n; j += 2 {
		s0 := dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		s1 := dst[j+1] + a0*b0[j+1] + a1*b1[j+1] + a2*b2[j+1] + a3*b3[j+1]
		dst[j] = s0
		dst[j+1] = s1
	}
	if j < n {
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy8 computes dst += Σ aᵢ·bᵢ over eight fused terms; one load/store
// round trip on dst serves sixteen flops per two-element step. Paired
// columns add their terms left to right onto dst — ((dst + a0·b0) + a1·b1)
// + … — while an odd last column sums the eight products first and adds
// dst to the total. The SIMD path reproduces the first order and leaves
// the last columns, where the second can occur, to this code.
func axpy8(dst, b0, b1, b2, b3, b4, b5, b6, b7 []float64, a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	b4, b5, b6, b7 = b4[:n], b5[:n], b6[:n], b7[:n]
	j := 0
	for ; j+1 < n; j += 2 {
		s0 := dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] +
			a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
		s1 := dst[j+1] + a0*b0[j+1] + a1*b1[j+1] + a2*b2[j+1] + a3*b3[j+1] +
			a4*b4[j+1] + a5*b5[j+1] + a6*b6[j+1] + a7*b7[j+1]
		dst[j] = s0
		dst[j+1] = s1
	}
	if j < n {
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] +
			a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
	}
}

// axpyUnrolled computes dst += s·src with 4-way unrolling.
func axpyUnrolled(dst, src []float64, s float64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] += s * src[j]
		dst[j+1] += s * src[j+1]
		dst[j+2] += s * src[j+2]
		dst[j+3] += s * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += s * src[j]
	}
}

// MulT computes dst = a × bᵀ. dst must be a.Rows×b.Rows and must not
// alias a or b. Every element of dst is overwritten.
func MulT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulT dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if gemmParallelWorthwhile(a.Rows, 2*a.Rows*a.Cols*b.Rows) {
		gemmParallelRows(a.Rows, func(i0, i1 int) { mulTRows(dst, a, b, i0, i1) })
	} else {
		mulTRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// mulTPanel is the size, in elements, of the packed bᵀ panel mulTRows
// keeps on its stack: 16 KiB, resident in L1 while every row tile sweeps
// it — 8 columns × 256 k under the AVX2 tiles, 16 columns × 128 k under
// the AVX-512 ones.
const mulTPanel = 2048

// mulTRows computes rows [i0, i1) of dst = a × bᵀ. dot4 walks k
// contiguously along rows of b, so SIMD lanes cannot span output columns
// in place: the SIMD path packs one tile width of rows of b at a time,
// transposed, into a stack panel and runs the column-lane tiles over
// that. dot4's sum is the same ascending-k sum from +0 the tiles compute
// (a k range longer than the panel continues from dst, which stores
// exactly), so those columns are bit-identical; the b.Rows%4 columns
// dotUnrolled produces, with its four partial sums, stay with dotUnrolled.
func mulTRows(dst, a, b *Matrix, i0, i1 int) {
	j0 := 0
	if simd > simdPortable && a.Cols > 0 {
		j0 = b.Rows &^ 3
		cols := 8
		if simd >= simdAVX512 {
			cols = 16
		}
		panelK := mulTPanel / cols
		var panel [mulTPanel]float64
		for j := 0; j < j0; j += cols {
			w := min(cols, j0-j)
			for k0 := 0; k0 < a.Cols; k0 += panelK {
				kc := min(panelK, a.Cols-k0)
				for c := 0; c < w; c++ {
					for k, v := range b.Row(j + c)[k0 : k0+kc] {
						panel[k*w+c] = v
					}
				}
				gemmSIMD(dst.Data[j:], b.Rows, a.Data[k0:], a.Cols, 1, panel[:], w, kc, w, i0, i1, k0 > 0)
			}
		}
	}
	if j0 < b.Rows {
		mulTRowsPortable(dst, a, b, i0, i1, j0)
	}
}

// mulTRowsPortable computes columns [j0, b.Rows) of rows [i0, i1) of
// dst = a × bᵀ, producing four output columns per pass over a row of a.
// j0 must be a multiple of 4 so the dot4/dotUnrolled boundary stays at
// b.Rows&^3.
func mulTRowsPortable(dst, a, b *Matrix, i0, i1, j0 int) {
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := j0
		for ; j+7 < b.Rows; j += 8 {
			drow[j], drow[j+1], drow[j+2], drow[j+3] =
				dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
			drow[j+4], drow[j+5], drow[j+6], drow[j+7] =
				dot4(arow, b.Row(j+4), b.Row(j+5), b.Row(j+6), b.Row(j+7))
		}
		for ; j+3 < b.Rows; j += 4 {
			drow[j], drow[j+1], drow[j+2], drow[j+3] =
				dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		}
		for ; j < b.Rows; j++ {
			drow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}

// dot4 computes the four inner products of a with b0..b3 in one pass
// over a. Four outputs per call is the measured sweet spot: an
// eight-output variant spills accumulators to the stack and loses ~25%.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		v := a[j]
		s0 += v * b0[j]
		s1 += v * b1[j]
		s2 += v * b2[j]
		s3 += v * b3[j]
	}
	return s0, s1, s2, s3
}

// dotUnrolled is an unrolled inner product for the hot paths.
func dotUnrolled(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+3 < n; j += 4 {
		s0 += a[j] * b[j]
		s1 += a[j+1] * b[j+1]
		s2 += a[j+2] * b[j+2]
		s3 += a[j+3] * b[j+3]
	}
	s := s0 + s1 + s2 + s3
	for ; j < n; j++ {
		s += a[j] * b[j]
	}
	return s
}

// TMul computes dst = aᵀ × b. dst must be a.Cols×b.Cols and must not
// alias a or b. Every element of dst is overwritten.
func TMul(dst, a, b *Matrix) *Matrix {
	checkTMulShapes("TMul", dst, a, b)
	if gemmParallelWorthwhile(a.Cols, 2*a.Rows*a.Cols*b.Cols) {
		gemmParallelRows(a.Cols, func(i0, i1 int) { tMulRows(dst, a, b, i0, i1, true) })
	} else {
		tMulRows(dst, a, b, 0, a.Cols, true)
	}
	return dst
}

// TMulAdd computes dst += aᵀ × b — the accumulate flavor Dense.Backward
// uses to fold the weight gradient xᵀ·∂y straight into the gradient
// tensor without a scratch product.
func TMulAdd(dst, a, b *Matrix) *Matrix {
	checkTMulShapes("TMulAdd", dst, a, b)
	if gemmParallelWorthwhile(a.Cols, 2*a.Rows*a.Cols*b.Cols) {
		gemmParallelRows(a.Cols, func(i0, i1 int) { tMulRows(dst, a, b, i0, i1, false) })
	} else {
		tMulRows(dst, a, b, 0, a.Cols, false)
	}
	return dst
}

func checkTMulShapes(op string, dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: %s shape mismatch (%dx%d)ᵀ × %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

// tMulRows computes rows [i0, i1) of dst = aᵀ × b (dst row i is column
// i of a swept against b). zero selects overwrite (TMul) versus
// accumulate (TMulAdd) semantics. The column split is mulRows'.
func tMulRows(dst, a, b *Matrix, i0, i1 int, zero bool) {
	j0 := 0
	if simd > simdPortable && a.Rows > 0 {
		j0 = b.Cols &^ 3
		gemmSIMD(dst.Data, b.Cols, a.Data, 1, a.Cols, b.Data, b.Cols, a.Rows, j0, i0, i1, !zero)
	}
	if j0 < b.Cols {
		tMulRowsPortable(dst, a, b, i0, i1, j0, zero)
	}
}

// tMulRowsPortable computes columns [j0, b.Cols) of rows [i0, i1) of
// dst (+)= aᵀ × b, fusing eight k-terms per pass. j0 must be even, as in
// mulRowsPortable.
func tMulRowsPortable(dst, a, b *Matrix, i0, i1, j0 int, zero bool) {
	if zero {
		for i := i0; i < i1; i++ {
			drow := dst.Row(i)[j0:]
			for j := range drow {
				drow[j] = 0
			}
		}
	}
	kTotal := a.Rows
	k := 0
	for ; k+7 < kTotal; k += 8 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		a4, a5, a6, a7 := a.Row(k+4), a.Row(k+5), a.Row(k+6), a.Row(k+7)
		b0, b1, b2, b3 := b.Row(k)[j0:], b.Row(k + 1)[j0:], b.Row(k + 2)[j0:], b.Row(k + 3)[j0:]
		b4, b5, b6, b7 := b.Row(k + 4)[j0:], b.Row(k + 5)[j0:], b.Row(k + 6)[j0:], b.Row(k + 7)[j0:]
		for i := i0; i < i1; i++ {
			axpy8(dst.Row(i)[j0:], b0, b1, b2, b3, b4, b5, b6, b7,
				a0[i], a1[i], a2[i], a3[i], a4[i], a5[i], a6[i], a7[i])
		}
	}
	for ; k+3 < kTotal; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k)[j0:], b.Row(k + 1)[j0:], b.Row(k + 2)[j0:], b.Row(k + 3)[j0:]
		for i := i0; i < i1; i++ {
			axpy4(dst.Row(i)[j0:], b0, b1, b2, b3, a0[i], a1[i], a2[i], a3[i])
		}
	}
	for ; k < kTotal; k++ {
		arow, brow := a.Row(k), b.Row(k)[j0:]
		for i := i0; i < i1; i++ {
			axpyUnrolled(dst.Row(i)[j0:], brow, arow[i])
		}
	}
}
