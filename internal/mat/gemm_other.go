//go:build !amd64

package mat

// Off amd64 there are no SIMD kernels: the portable Go kernels in gemm.go
// are the only path and gemmSIMD is never reached. A variable, as on
// amd64, so the same tests compile.
var simd = simdPortable

func gemmSIMD(dst []float64, ldd int, a []float64, ai, ak int, b []float64, ldb, kTotal, n4, i0, i1 int, acc bool) {
	panic("mat: no SIMD GEMM kernel on this architecture")
}
