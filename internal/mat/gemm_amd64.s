#include "textflag.h"

// Tile kernels for gemmSIMD (gemm_amd64.go): 8 and 4 columns wide in
// AVX2, 16 wide in AVX-512. Each computes one R-row × C-column tile of
//
//	dst[r·ldd + c] (+)= Σ_{k<K} a[r·ai + k·ak] · b[k·ldb + c]
//
// with the SIMD lanes spanning the C output columns and the whole k loop
// inside the kernel, the tile's accumulators held in vector registers. Every
// destination element therefore adds its K products one at a time in
// ascending k, each product rounded (VMULPD) before it is added (VADDPD)
// — deliberately no FMA — which is exactly the order and rounding of the
// portable axpy8/axpy4/axpyUnrolled chain and of dot4. acc selects
// starting from dst (true) or from +0 (false). K must be at least 1.
// Strides arrive in elements and are scaled to bytes here.

// LOADARGS unpacks the common signature
//	(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
// into DI, DX, SI, R8, R9, BX, R10, CX, with 3·ai in R11 and 3·ldd in R12.
#define LOADARGS \
	MOVQ dst+0(FP), DI; \
	MOVQ ldd+8(FP), DX; \
	MOVQ a+16(FP), SI; \
	MOVQ ai+24(FP), R8; \
	MOVQ ak+32(FP), R9; \
	MOVQ b+40(FP), BX; \
	MOVQ ldb+48(FP), R10; \
	MOVQ k+56(FP), CX; \
	SHLQ $3, DX; \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	SHLQ $3, R10; \
	LEAQ (R8)(R8*2), R11; \
	LEAQ (DX)(DX*2), R12

// ROW8 adds a(r,k)·b[k][0:8] (b in Y8, Y9) into the row's two accumulators.
#define ROW8(amem, lo, hi) \
	VBROADCASTSD amem, Y10; \
	VMULPD Y8, Y10, Y11; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y11, lo, lo; \
	VADDPD Y12, hi, hi

// ROW4 is ROW8 for a four-column tile (b in Y8).
#define ROW4(amem, acc) \
	VBROADCASTSD amem, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, acc, acc

// NEXTK advances the a and b cursors one k step and loops.
#define NEXTK(label) \
	ADDQ R10, BX; \
	ADDQ R9, SI; \
	DECQ CX; \
	JNZ  label

// ROW16 is ROW8 at 512 bits: b[k][0:16] in Z16, Z17, sixteen columns of
// one row accumulated in two ZMM registers. Still multiply, round, add.
#define ROW16(amem, lo, hi) \
	VBROADCASTSD amem, Z18; \
	VMULPD Z16, Z18, Z19; \
	VMULPD Z17, Z18, Z20; \
	VADDPD Z19, lo, lo; \
	VADDPD Z20, hi, hi

// func gemm8x16(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
//
// Sixteen accumulators, Z0–Z15: rows 0–3 are addressed from SI and DI as
// in gemm4x8, rows 4–7 from AX = a + 4·ai and R13 = dst + 4·ldd.
TEXT ·gemm8x16(SB), NOSPLIT, $0-65
	LOADARGS
	LEAQ (SI)(R8*4), AX
	LEAQ (DI)(DX*4), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	CMPB acc+64(FP), $0
	JEQ  loop816
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(DX*1), Z2
	VMOVUPD 64(DI)(DX*1), Z3
	VMOVUPD (DI)(DX*2), Z4
	VMOVUPD 64(DI)(DX*2), Z5
	VMOVUPD (DI)(R12*1), Z6
	VMOVUPD 64(DI)(R12*1), Z7
	VMOVUPD (R13), Z8
	VMOVUPD 64(R13), Z9
	VMOVUPD (R13)(DX*1), Z10
	VMOVUPD 64(R13)(DX*1), Z11
	VMOVUPD (R13)(DX*2), Z12
	VMOVUPD 64(R13)(DX*2), Z13
	VMOVUPD (R13)(R12*1), Z14
	VMOVUPD 64(R13)(R12*1), Z15
loop816:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	ROW16((SI), Z0, Z1)
	ROW16((SI)(R8*1), Z2, Z3)
	ROW16((SI)(R8*2), Z4, Z5)
	ROW16((SI)(R11*1), Z6, Z7)
	ROW16((AX), Z8, Z9)
	ROW16((AX)(R8*1), Z10, Z11)
	ROW16((AX)(R8*2), Z12, Z13)
	ROW16((AX)(R11*1), Z14, Z15)
	ADDQ R9, AX
	NEXTK(loop816)
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(DX*1)
	VMOVUPD Z3, 64(DI)(DX*1)
	VMOVUPD Z4, (DI)(DX*2)
	VMOVUPD Z5, 64(DI)(DX*2)
	VMOVUPD Z6, (DI)(R12*1)
	VMOVUPD Z7, 64(DI)(R12*1)
	VMOVUPD Z8, (R13)
	VMOVUPD Z9, 64(R13)
	VMOVUPD Z10, (R13)(DX*1)
	VMOVUPD Z11, 64(R13)(DX*1)
	VMOVUPD Z12, (R13)(DX*2)
	VMOVUPD Z13, 64(R13)(DX*2)
	VMOVUPD Z14, (R13)(R12*1)
	VMOVUPD Z15, 64(R13)(R12*1)
	VZEROUPPER
	RET

// func gemm4x16(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
TEXT ·gemm4x16(SB), NOSPLIT, $0-65
	LOADARGS
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPB acc+64(FP), $0
	JEQ  loop416
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(DX*1), Z2
	VMOVUPD 64(DI)(DX*1), Z3
	VMOVUPD (DI)(DX*2), Z4
	VMOVUPD 64(DI)(DX*2), Z5
	VMOVUPD (DI)(R12*1), Z6
	VMOVUPD 64(DI)(R12*1), Z7
loop416:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	ROW16((SI), Z0, Z1)
	ROW16((SI)(R8*1), Z2, Z3)
	ROW16((SI)(R8*2), Z4, Z5)
	ROW16((SI)(R11*1), Z6, Z7)
	NEXTK(loop416)
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(DX*1)
	VMOVUPD Z3, 64(DI)(DX*1)
	VMOVUPD Z4, (DI)(DX*2)
	VMOVUPD Z5, 64(DI)(DX*2)
	VMOVUPD Z6, (DI)(R12*1)
	VMOVUPD Z7, 64(DI)(R12*1)
	VZEROUPPER
	RET

// func gemm4x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
TEXT ·gemm4x8(SB), NOSPLIT, $0-65
	LOADARGS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	CMPB acc+64(FP), $0
	JEQ  loop48
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD 32(DI)(DX*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7
loop48:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW8((SI), Y0, Y1)
	ROW8((SI)(R8*1), Y2, Y3)
	ROW8((SI)(R8*2), Y4, Y5)
	ROW8((SI)(R11*1), Y6, Y7)
	NEXTK(loop48)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, 32(DI)(DX*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET

// func gemm4x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
TEXT ·gemm4x4(SB), NOSPLIT, $0-65
	LOADARGS
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	CMPB acc+64(FP), $0
	JEQ  loop44
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD (DI)(R12*1), Y6
loop44:
	VMOVUPD (BX), Y8
	ROW4((SI), Y0)
	ROW4((SI)(R8*1), Y2)
	ROW4((SI)(R8*2), Y4)
	ROW4((SI)(R11*1), Y6)
	NEXTK(loop44)
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y6, (DI)(R12*1)
	VZEROUPPER
	RET

// func gemm1x8(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
TEXT ·gemm1x8(SB), NOSPLIT, $0-65
	LOADARGS
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPB acc+64(FP), $0
	JEQ  loop18
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
loop18:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW8((SI), Y0, Y1)
	NEXTK(loop18)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm1x4(dst *float64, ldd int, a *float64, ai, ak int, b *float64, ldb, k int, acc bool)
TEXT ·gemm1x4(SB), NOSPLIT, $0-65
	LOADARGS
	VXORPD Y0, Y0, Y0
	CMPB acc+64(FP), $0
	JEQ  loop14
	VMOVUPD (DI), Y0
loop14:
	VMOVUPD (BX), Y8
	ROW4((SI), Y0)
	NEXTK(loop14)
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
