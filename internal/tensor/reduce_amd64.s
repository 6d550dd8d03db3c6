// AVX reduction and scale-shift kernels. Lane order and operation sequence
// are the contract of reduce.go: four 4-wide accumulators over blocks of 16,
// leftover blocks of 4 into accumulator 0, (a0+a1)+(a2+a3), (l0+l2)+(l1+l3),
// then the scalar tail — mul and add never fused.

#include "textflag.h"

// FOLD reduces accumulators Y0..Y3 to a scalar in X0.
#define FOLD \
	VADDPD       Y1, Y0, Y0 \
	VADDPD       Y3, Y2, Y2 \
	VADDPD       Y2, Y0, Y0 \
	VEXTRACTF128 $1, Y0, X1 \
	VADDPD       X1, X0, X0 \
	VUNPCKHPD    X0, X0, X1 \
	VADDSD       X1, X0, X0

// func sumAVX(x []float64) float64
TEXT ·sumAVX(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

sum16:
	LEAQ   16(AX), DX
	CMPQ   DX, CX
	JG     sum4
	VADDPD (SI)(AX*8), Y0, Y0
	VADDPD 32(SI)(AX*8), Y1, Y1
	VADDPD 64(SI)(AX*8), Y2, Y2
	VADDPD 96(SI)(AX*8), Y3, Y3
	MOVQ   DX, AX
	JMP    sum16

sum4:
	LEAQ   4(AX), DX
	CMPQ   DX, CX
	JG     sumfold
	VADDPD (SI)(AX*8), Y0, Y0
	MOVQ   DX, AX
	JMP    sum4

sumfold:
	FOLD

sumtail:
	CMPQ  AX, CX
	JGE   sumdone
	VADDSD (SI)(AX*8), X0, X0
	INCQ  AX
	JMP   sumtail

sumdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// SQDEV accumulates (mem − Y4)² into acc, through scratch tmp.
#define SQDEV(off, tmp, acc) \
	VMOVUPD off(SI)(AX*8), tmp \
	VSUBPD  Y4, tmp, tmp       \
	VMULPD  tmp, tmp, tmp      \
	VADDPD  tmp, acc, acc

// func sumSqDevAVX(x []float64, mu float64) float64
TEXT ·sumSqDevAVX(SB), NOSPLIT, $0-40
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD mu+24(FP), Y4
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	XORQ         AX, AX

sq16:
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JG   sq4
	SQDEV(0, Y5, Y0)
	SQDEV(32, Y6, Y1)
	SQDEV(64, Y7, Y2)
	SQDEV(96, Y8, Y3)
	MOVQ DX, AX
	JMP  sq16

sq4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   sqfold
	SQDEV(0, Y5, Y0)
	MOVQ DX, AX
	JMP  sq4

sqfold:
	FOLD

sqtail:
	CMPQ   AX, CX
	JGE    sqdone
	VMOVSD (SI)(AX*8), X5
	VSUBSD X4, X5, X5
	VMULSD X5, X5, X5
	VADDSD X5, X0, X0
	INCQ   AX
	JMP    sqtail

sqdone:
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// AFFINE computes Y2·((mem − Y0)·Y1) + Y3 into reg.
#define AFFINE(off, reg) \
	VMOVUPD off(SI)(AX*8), reg \
	VSUBPD  Y0, reg, reg       \
	VMULPD  Y1, reg, reg       \
	VMULPD  Y2, reg, reg       \
	VADDPD  Y3, reg, reg

// AFFINE1 is the one-lane form of AFFINE, into X5.
#define AFFINE1 \
	VMOVSD (SI)(AX*8), X5 \
	VSUBSD X0, X5, X5     \
	VMULSD X1, X5, X5     \
	VMULSD X2, X5, X5     \
	VADDSD X3, X5, X5

// func normAffineAVX(dst, x []float64, mu, invStd, gamma, beta float64, relu bool)
//
// The clamp is MAXPD(v, 0) with zero as the second source: the instruction
// returns the second source when either operand is NaN or both are zero, so
// NaN and −0 become +0 — exactly `if !(v > 0) { v = 0 }`.
TEXT ·normAffineAVX(SB), NOSPLIT, $0-81
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD mu+48(FP), Y0
	VBROADCASTSD invStd+56(FP), Y1
	VBROADCASTSD gamma+64(FP), Y2
	VBROADCASTSD beta+72(FP), Y3
	VXORPD       Y4, Y4, Y4
	XORQ         AX, AX
	MOVBLZX      relu+80(FP), BX
	TESTL        BX, BX
	JNZ          nr8

na8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JG      na4
	AFFINE(0, Y5)
	AFFINE(32, Y6)
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     na8

na4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JG      natail
	AFFINE(0, Y5)
	VMOVUPD Y5, (DI)(AX*8)
	MOVQ    DX, AX

natail:
	CMPQ   AX, CX
	JGE    nadone
	AFFINE1
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    natail

nr8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JG      nr4
	AFFINE(0, Y5)
	AFFINE(32, Y6)
	VMAXPD  Y4, Y5, Y5
	VMAXPD  Y4, Y6, Y6
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     nr8

nr4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JG      nrtail
	AFFINE(0, Y5)
	VMAXPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	MOVQ    DX, AX

nrtail:
	CMPQ   AX, CX
	JGE    nadone
	AFFINE1
	VMAXSD X4, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    nrtail

nadone:
	VZEROUPPER
	RET
