#include "textflag.h"

// The post-backward sweep's AVX2 kernel: sweepScalar (optim.go) over four
// elements at a time, operation for operation — every VMULPD rounds
// before the VADDPD that consumes it (deliberately no FMA), VDIVPD and
// VSQRTPD are correctly rounded like `/` and math.Sqrt, and lr·m̂ is
// formed before the division — so a lane holds exactly the bits the
// scalar loop would. It is 256-bit only: the loop is bound by the
// divider, which 512-bit lanes do not widen.
//
// The running max |w| is kept as integer bit patterns (VPCMPGTQ, not
// VMAXPD): non-negative floats order as their patterns do and every NaN
// sits above +Inf, so a NaN weight wins the max instead of being dropped
// by it, and the result needs no separate NaN flag.

// CONST broadcasts the sweepConsts field at byte offset off.
#define CONST(off, reg) VBROADCASTSD off(R9), reg

// func sweepAVX2(wp, gp, mp, vp, tp *float64, blocks int, c *sweepConsts) float64
TEXT ·sweepAVX2(SB), NOSPLIT, $0-64
	MOVQ wp+0(FP), DI
	MOVQ gp+8(FP), SI
	MOVQ mp+16(FP), DX
	MOVQ vp+24(FP), CX
	MOVQ tp+32(FP), BX
	MOVQ blocks+40(FP), R8
	MOVQ c+48(FP), R9
	CONST(0, Y9)              // scale
	CONST(8, Y10)             // wd
	CONST(16, Y11)            // beta1
	CONST(24, Y12)            // 1-beta1
	CONST(32, Y13)            // beta2
	CONST(40, Y14)            // 1-beta2
	VPCMPEQD Y6, Y6, Y6
	VPSRLQ   $1, Y6, Y6       // |x| mask
	VXORPD   Y7, Y7, Y7       // zero
	VXORPD   Y8, Y8, Y8       // running max |w|, as bits
loop:
	VMOVUPD (DI), Y0          // w
	VMOVUPD (SI), Y1
	VMULPD  Y9, Y1, Y1        // g·scale
	VMULPD  Y0, Y10, Y4       // wd·w
	VADDPD  Y4, Y1, Y1        // g
	VMOVUPD Y7, (SI)          // gradient cleared
	VMOVUPD (DX), Y2
	VMULPD  Y2, Y11, Y2       // beta1·m
	VMULPD  Y1, Y12, Y4       // (1-beta1)·g
	VADDPD  Y4, Y2, Y2        // m
	VMOVUPD Y2, (DX)
	VMOVUPD (CX), Y3
	VMULPD  Y3, Y13, Y3       // beta2·v
	VMULPD  Y1, Y14, Y4       // (1-beta2)·g
	VMULPD  Y1, Y4, Y4        // ((1-beta2)·g)·g
	VADDPD  Y4, Y3, Y3        // v
	VMOVUPD Y3, (CX)
	CONST(48, Y4)
	VDIVPD  Y4, Y2, Y2        // mhat = m / bc1
	CONST(56, Y4)
	VDIVPD  Y4, Y3, Y3        // vhat = v / bc2
	CONST(64, Y4)
	VMULPD  Y2, Y4, Y2        // lr·mhat
	VSQRTPD Y3, Y3
	CONST(72, Y4)
	VADDPD  Y4, Y3, Y3        // sqrt(vhat) + eps
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y0, Y0        // w −= (lr·mhat) / (sqrt(vhat) + eps)
	VMOVUPD Y0, (DI)
	TESTQ   BX, BX
	JZ      max
	CONST(80, Y4)
	VMULPD  Y0, Y4, Y4        // tau·w
	CONST(88, Y5)
	VMULPD  (BX), Y5, Y5      // (1-tau)·w′
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (BX)
	ADDQ    $32, BX
max:
	VANDPD    Y6, Y0, Y0      // |w|
	VPCMPGTQ  Y8, Y0, Y4      // |w| > max, lane by lane
	VBLENDVPD Y4, Y0, Y8, Y8
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	DECQ R8
	JNZ  loop
	// Reduce the four lanes to one by the same integer compare.
	VEXTRACTF128 $1, Y8, X1
	VPCMPGTQ     X8, X1, X2
	VBLENDVPD    X2, X1, X8, X8
	VPSHUFD      $0xEE, X8, X1
	VPCMPGTQ     X8, X1, X2
	VBLENDVPD    X2, X1, X8, X8
	VMOVQ        X8, AX
	MOVQ         AX, ret+56(FP)
	VZEROUPPER
	RET
