package mat

// simd selects the widest tile kernels the host can run over the portable
// Go kernels. It is decided once, here, from what the CPU and the OS
// report, and is a variable only so the bit-identity tests can lower it.
var simd = detectSIMD()

// detectSIMD reports the highest kernel level that may be executed. AVX2
// needs the CPU to implement AVX and AVX2 and the OS to save the YMM
// state (XCR0 bits 1 and 2) across context switches; AVX-512 needs, on
// top of that, AVX512F and the opmask, ZMM0–15 upper-half and ZMM16–31
// state (XCR0 bits 5, 6 and 7) enabled too. The levels nest: there is no
// "512 without AVX2".
func detectSIMD() simdLevel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return simdPortable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return simdPortable
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return simdPortable
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	if ebx&avx2 == 0 {
		return simdPortable
	}
	if ebx&avx512f == 0 || xcr0&0xE6 != 0xE6 {
		return simdAVX2
	}
	return simdAVX512
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The tile kernels (gemm_amd64.s): an R×C tile of
// dst[r·ldd+c] (+)= Σ_k a[r·ai+k·ak]·b[k·ldb+c], strides in elements,
// k ≥ 1, each element's terms added in ascending k. The 16-column tiles
// are AVX-512, the rest AVX2.
//
//go:noescape
func gemm8x16(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm4x16(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm4x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm4x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm1x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

//go:noescape
func gemm1x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)

// gemmSIMD computes, for rows i in [i0, i1) and columns j in [0, n4),
//
//	dst[i·ldd+j] (+)= Σ_{k<kTotal} a[i·ai+k·ak] · b[k·ldb+j]
//
// by tiling the region: at the AVX-512 level every full 16-column block
// in 8-row tiles (then 4 rows, then single rows as two 1×8), and the
// columns after the last such block — every column at the AVX2 level —
// 4 rows × 8 columns (4×4, 1×8, 1×4 at the edges). n4 must be a multiple
// of 4 and kTotal at least 1. Which tile an element falls in does not
// affect its value, so any row split and either level give the same bits.
func gemmSIMD(dst []float64, ldd int, a []float64, ai, ak int, b []float64, ldb, kTotal, n4, i0, i1 int, acc bool) {
	j := 0
	if simd >= simdAVX512 {
		for ; j+16 <= n4; j += 16 {
			i := i0
			for ; i+8 <= i1; i += 8 {
				gemm8x16(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			}
			for ; i+4 <= i1; i += 4 {
				gemm4x16(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
			}
			for ; i < i1; i++ {
				gemm1x8(&dst[i*ldd+j], ldd, &a[i*ai], ai, ak, &b[j], ldb, kTotal, acc)
				gemm1x8(&dst[i*ldd+j+8], ldd, &a[i*ai], ai, ak, &b[j+8], ldb, kTotal, acc)
			}
		}
	}
	for ; j < n4; j += 8 {
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
