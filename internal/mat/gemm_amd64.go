package mat

// useAVX2 selects the SIMD tile kernels over the portable Go kernels. It
// is decided once, here, from what the CPU and the OS report, and is a
// variable only so the bit-identity tests can run both paths.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements AVX and AVX2, and the OS saves the YMM state (XCR0 bits 1
// and 2) across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The tile kernels (gemm_amd64.s): an R×C tile of
// dst[r·ldd+c] (+)= Σ_k a[r·ai+k·ak]·b[k·ldb+c], strides in elements,
// k ≥ 1, each element's terms added in ascending k.
//
//go:noescape
func gemm4x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm4x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm1x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm1x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

// gemmAVX2 computes, for rows i in [i0, i1) and columns j in [0, n4),
//
//	dst[i·ldd+j] (+)= Σ_{k<kTotal} a[i·ai+k·ak] · b[k·ldb+j]
//
// by tiling the region 4 rows × 8 columns (narrower at the edges). n4
// must be a multiple of 4 and kTotal at least 1. Which tile an element
// falls in does not affect its value, so any row split gives the same
// bits.
func gemmAVX2(dst []float64, ldd int, a []float64, ai, ak int, b []float64, ldb, kTotal, n4, i0, i1 int, acc bool) {
	for j := 0; j < n4; j += 8 {
		wide := j+8 <= n4
		i := i0
		for ; i+4 <= i1; i += 4 {
			if wide {
				gemm4x8(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			} else {
				gemm4x4(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			}
		}
		for ; i < i1; i++ {
			if wide {
				gemm1x8(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			} else {
				gemm1x4(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			}
		}
	}
}
