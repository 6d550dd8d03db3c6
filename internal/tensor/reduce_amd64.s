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

// The ReLU clamp is MAXPD(v, 0) with zero (Y4) as the second source: the
// instruction returns the second source when either operand is NaN or both
// are zero, so NaN and −0 become +0 — exactly `if !(v > 0) { v = 0 }`. The
// scale-shift kernels run one loop for both values of relu: each block tests
// the flag and, when it is clear, jumps over its clamps by a PC-relative
// count, which a macro can hold where a label could not.

// func normAffineAVX(dst, x []float64, mu, invStd, gamma, beta float64, relu bool)
//
// Blocks of 8, one of 4, then the scalar tail.
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

na8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JG      na4
	AFFINE(0, Y5)
	AFFINE(32, Y6)
	CMPB    relu+80(FP), $0
	JEQ     3(PC)
	VMAXPD  Y4, Y5, Y5
	VMAXPD  Y4, Y6, Y6
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	MOVQ    DX, AX
	JMP     na8

na4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JG      natail
	AFFINE(0, Y5)
	CMPB    relu+80(FP), $0
	JEQ     2(PC)
	VMAXPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	MOVQ    DX, AX

natail:
	CMPQ   AX, CX
	JGE    nadone
	AFFINE1
	CMPB   relu+80(FP), $0
	JEQ    2(PC)
	VMAXSD X4, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    natail

nadone:
	VZEROUPPER
	RET

// The grid forms read Ch windows of Rows×Cols at row stride LD and channel
// stride CS (reduce.go's Grid), cut into blocks of 16 (Grid.blocked): SI
// walks the channels CS apart, DI a channel's groups gstep apart and DX a
// group's blocks 16 elements apart; a block's four loads are at DX, DX+o1,
// DX+o2 and DX+o3 (R10..R12), its packed order, so they go to Y0..Y3 as
// sumAVX's four loads of a block do. Every count is at least 1, and no block
// of 4 or tail is left over. Strides and offsets come in elements and are
// scaled to bytes.

// func sumBlocksAVX(x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int) float64
TEXT ·sumBlocksAVX(SB), NOSPLIT, $0-96
	MOVQ   x_base+0(FP), SI
	MOVQ   ch+24(FP), CX
	MOVQ   cs+32(FP), R13
	MOVQ   o1+56(FP), R10
	MOVQ   o2+64(FP), R11
	MOVQ   o3+72(FP), R12
	MOVQ   gstep+80(FP), BX
	SHLQ   $3, R13
	SHLQ   $3, R10
	SHLQ   $3, R11
	SHLQ   $3, R12
	SHLQ   $3, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

bsumchan:
	MOVQ SI, DI
	MOVQ groups+40(FP), R8

bsumgrp:
	MOVQ DI, DX
	MOVQ blocks+48(FP), R9

bsumblk:
	VADDPD (DX), Y0, Y0
	VADDPD (DX)(R10*1), Y1, Y1
	VADDPD (DX)(R11*1), Y2, Y2
	VADDPD (DX)(R12*1), Y3, Y3
	ADDQ   $128, DX
	DECQ   R9
	JNE    bsumblk
	ADDQ   BX, DI
	DECQ   R8
	JNE    bsumgrp
	ADDQ   R13, SI
	DECQ   CX
	JNE    bsumchan
	FOLD
	VMOVSD X0, ret+88(FP)
	VZEROUPPER
	RET

// SQDEVB accumulates (mem − Y4)² into acc, through tmp.
#define SQDEVB(mem, tmp, acc) \
	VMOVUPD mem, tmp       \
	VSUBPD  Y4, tmp, tmp   \
	VMULPD  tmp, tmp, tmp  \
	VADDPD  tmp, acc, acc

// func sumSqDevBlocksAVX(x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int, mu float64) float64
TEXT ·sumSqDevBlocksAVX(SB), NOSPLIT, $0-104
	MOVQ         x_base+0(FP), SI
	MOVQ         ch+24(FP), CX
	MOVQ         cs+32(FP), R13
	MOVQ         o1+56(FP), R10
	MOVQ         o2+64(FP), R11
	MOVQ         o3+72(FP), R12
	MOVQ         gstep+80(FP), BX
	VBROADCASTSD mu+88(FP), Y4
	SHLQ         $3, R13
	SHLQ         $3, R10
	SHLQ         $3, R11
	SHLQ         $3, R12
	SHLQ         $3, BX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3

bsqchan:
	MOVQ SI, DI
	MOVQ groups+40(FP), R8

bsqgrp:
	MOVQ DI, DX
	MOVQ blocks+48(FP), R9

bsqblk:
	SQDEVB((DX), Y5, Y0)
	SQDEVB((DX)(R10*1), Y6, Y1)
	SQDEVB((DX)(R11*1), Y7, Y2)
	SQDEVB((DX)(R12*1), Y8, Y3)
	ADDQ $128, DX
	DECQ R9
	JNE  bsqblk
	ADDQ BX, DI
	DECQ R8
	JNE  bsqgrp
	ADDQ R13, SI
	DECQ CX
	JNE  bsqchan
	FOLD
	VMOVSD X0, ret+96(FP)
	VZEROUPPER
	RET

// AFFINEB is AFFINE on the block load at mem, into reg.
#define AFFINEB(mem, reg) \
	VMOVUPD mem, reg     \
	VSUBPD  Y0, reg, reg \
	VMULPD  Y1, reg, reg \
	VMULPD  Y2, reg, reg \
	VADDPD  Y3, reg, reg

// AFFINE4 computes the block at DX into Y5..Y8, clamped when the byte at
// flag is set.
#define AFFINE4(flag) \
	AFFINEB((DX), Y5)        \
	AFFINEB((DX)(R10*1), Y6) \
	AFFINEB((DX)(R11*1), Y7) \
	AFFINEB((DX)(R12*1), Y8) \
	CMPB    flag, $0         \
	JEQ     5(PC)            \
	VMAXPD  Y4, Y5, Y5       \
	VMAXPD  Y4, Y6, Y6       \
	VMAXPD  Y4, Y7, Y7       \
	VMAXPD  Y4, Y8, Y8

// func normAffineBlocksAVX(dst []float64, dcs int, x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int, mu, invStd float64, gamma, beta []float64, relu bool)
//
// The block bodies' walk with γ and β broadcast per channel (the channel's
// index is ch − CX), in one loop per destination layout. Packed (dcs 0)
// stores a block to the next 16 elements of dst (AX); strided stores it at
// the offsets it was loaded from, shifted by AX = dst − x, which grows by
// dcs − cs per channel.
TEXT ·normAffineBlocksAVX(SB), NOSPLIT, $0-185
	MOVQ         dst_base+0(FP), AX
	MOVQ         x_base+32(FP), SI
	MOVQ         ch+56(FP), CX
	MOVQ         cs+64(FP), R13
	MOVQ         dcs+24(FP), R14
	MOVQ         o1+88(FP), R10
	MOVQ         o2+96(FP), R11
	MOVQ         o3+104(FP), R12
	MOVQ         gstep+112(FP), BX
	VBROADCASTSD mu+120(FP), Y0
	VBROADCASTSD invStd+128(FP), Y1
	VXORPD       Y4, Y4, Y4
	SHLQ         $3, R13
	SHLQ         $3, R14
	SHLQ         $3, R10
	SHLQ         $3, R11
	SHLQ         $3, R12
	SHLQ         $3, BX
	TESTQ        R14, R14
	JZ           pchan
	SUBQ         SI, AX
	SUBQ         R13, R14

schan:
	MOVQ         ch+56(FP), R8
	SUBQ         CX, R8
	MOVQ         gamma_base+136(FP), R9
	VBROADCASTSD (R9)(R8*8), Y2
	MOVQ         beta_base+160(FP), R9
	VBROADCASTSD (R9)(R8*8), Y3
	MOVQ         SI, DI
	MOVQ         groups+72(FP), R8

sgrp:
	MOVQ DI, DX
	MOVQ blocks+80(FP), R9

sblk:
	AFFINE4(relu+184(FP))
	LEAQ    (DX)(AX*1), R15
	VMOVUPD Y5, (R15)
	VMOVUPD Y6, (R15)(R10*1)
	VMOVUPD Y7, (R15)(R11*1)
	VMOVUPD Y8, (R15)(R12*1)
	ADDQ    $128, DX
	DECQ    R9
	JNE     sblk
	ADDQ    BX, DI
	DECQ    R8
	JNE     sgrp
	ADDQ    R13, SI
	ADDQ    R14, AX
	DECQ    CX
	JNE     schan
	JMP     bdone

pchan:
	MOVQ         ch+56(FP), R8
	SUBQ         CX, R8
	MOVQ         gamma_base+136(FP), R9
	VBROADCASTSD (R9)(R8*8), Y2
	MOVQ         beta_base+160(FP), R9
	VBROADCASTSD (R9)(R8*8), Y3
	MOVQ         SI, DI
	MOVQ         groups+72(FP), R8

pgrp:
	MOVQ DI, DX
	MOVQ blocks+80(FP), R9

pblk:
	AFFINE4(relu+184(FP))
	VMOVUPD Y5, (AX)
	VMOVUPD Y6, 32(AX)
	VMOVUPD Y7, 64(AX)
	VMOVUPD Y8, 96(AX)
	ADDQ    $128, AX
	ADDQ    $128, DX
	DECQ    R9
	JNE     pblk
	ADDQ    BX, DI
	DECQ    R8
	JNE     pgrp
	ADDQ    R13, SI
	DECQ    CX
	JNE     pchan

bdone:
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// DEINTERLEAVE splits the eight taps at off(ptr) into even (ev) and odd (od)
// lanes: the two 128-bit swaps gather [t0 t1 t4 t5] and [t2 t3 t6 t7], and
// the unpacks take their low and high halves.
#define DEINTERLEAVE(ptr, ev, od) \
	VMOVUPD    (ptr), Y0            \
	VMOVUPD    32(ptr), Y1          \
	VPERM2F128 $0x20, Y1, Y0, Y2    \
	VPERM2F128 $0x31, Y1, Y0, Y3    \
	VUNPCKLPD  Y3, Y2, ev           \
	VUNPCKHPD  Y3, Y2, od

// func maxPool2x2AVX(dst, r0, r1 []float64)
//
// Four outputs per iteration; len(dst) is a multiple of 4 and r0, r1 hold
// 2·len(dst) taps. VMAXPD with the tap as the first source and the running
// maximum as the second returns the tap only when it is greater: NaN and
// ties keep the maximum, the first-greater rule of the Go loop.
TEXT ·maxPool2x2AVX(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         r0_base+24(FP), SI
	MOVQ         r1_base+48(FP), R8
	VBROADCASTSD negInf<>(SB), Y15
	XORQ         AX, AX

pool4:
	CMPQ    AX, CX
	JGE     pooldone
	DEINTERLEAVE(SI, Y4, Y5)
	DEINTERLEAVE(R8, Y6, Y7)
	VMAXPD  Y15, Y4, Y8
	VMAXPD  Y8, Y5, Y8
	VMAXPD  Y8, Y6, Y8
	VMAXPD  Y8, Y7, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	ADDQ    $64, SI
	ADDQ    $64, R8
	JMP     pool4

pooldone:
	VZEROUPPER
	RET

// func copyRowsAVX(dst []float64, ldd int, src []float64, lds int, rows, cols int)
//
// cols ≥ 4: each row moves in 4-wide blocks, the last block ending at the
// row's end (overlapping the one before it when cols is not a multiple of 4).
TEXT ·copyRowsAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	MOVQ src_base+32(FP), SI
	MOVQ lds+56(FP), R9
	MOVQ rows+64(FP), R10
	MOVQ cols+72(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SUBQ $4, DX

crow:
	TESTQ R10, R10
	JLE   cdone
	XORQ  AX, AX

cblk:
	CMPQ    AX, DX
	JGE     clast
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     cblk

clast:
	VMOVUPD (SI)(DX*8), Y0
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ    R8, DI
	ADDQ    R9, SI
	DECQ    R10
	JMP     crow

cdone:
	VZEROUPPER
	RET

// The normalization backward kernels keep mu, invStd, gamma, beta and zero
// in Y8..Y12. Per four lanes, t = (x − mu)·invStd and x̂ = t + 0 (NormAffine
// at gamma 1, beta 0); g = dy, or with the relu flag set g = dy AND
// (gamma·t + beta > 0), the compare ordered and quiet (predicate 0x1e), so
// NaN fails it and a failed lane is +0. As in the scale-shift kernels, one
// loop serves both values of the flag, each block jumping over the mask when
// it is clear.

// GTERM loads t for the four lanes at off into Y13 and g into Y14, masking
// through Y15 when the byte at flag is set.
#define GTERM(off, flag) \
	VMOVUPD off(SI)(AX*8), Y13   \
	VSUBPD  Y8, Y13, Y13         \
	VMULPD  Y9, Y13, Y13         \
	VMOVUPD off(DI)(AX*8), Y14   \
	CMPB    flag, $0             \
	JEQ     5(PC)                \
	VMULPD  Y10, Y13, Y15        \
	VADDPD  Y11, Y15, Y15        \
	VCMPPD  $0x1e, Y12, Y15, Y15 \
	VANDPD  Y15, Y14, Y14

// GTERM1 is the one-lane form of GTERM, into X13 and X14. Its loads stay
// 8 bytes wide: a 128-bit operand would read past the end of the slices.
#define GTERM1(flag) \
	VMOVSD (SI)(AX*8), X13      \
	VSUBSD X8, X13, X13         \
	VMULSD X9, X13, X13         \
	VMOVSD (DI)(AX*8), X14      \
	CMPB   flag, $0             \
	JEQ    5(PC)                \
	VMULSD X10, X13, X15        \
	VADDSD X11, X15, X15        \
	VCMPSD $0x1e, X12, X15, X15 \
	VANDPD X15, X14, X14

// GSUM adds g for the four lanes at off to ag and g·x̂ to agh.
#define GSUM(off, ag, agh, flag) \
	GTERM(off, flag)     \
	VADDPD Y14, ag, ag   \
	VADDPD Y12, Y13, Y13 \
	VMULPD Y14, Y13, Y13 \
	VADDPD Y13, agh, agh

// func normGradSumsAVX(dy, x []float64, mu, invStd, gamma, beta float64, relu bool) (sumG, sumGX float64)
//
// Σ g in Y0..Y3 and Σ g·x̂ in Y4..Y7, each folded as sumAVX folds.
TEXT ·normGradSumsAVX(SB), NOSPLIT, $0-104
	MOVQ         dy_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD mu+48(FP), Y8
	VBROADCASTSD invStd+56(FP), Y9
	VBROADCASTSD gamma+64(FP), Y10
	VBROADCASTSD beta+72(FP), Y11
	VXORPD       Y12, Y12, Y12
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	XORQ         AX, AX

gs16:
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JG   gs4
	GSUM(0, Y0, Y4, relu+80(FP))
	GSUM(32, Y1, Y5, relu+80(FP))
	GSUM(64, Y2, Y6, relu+80(FP))
	GSUM(96, Y3, Y7, relu+80(FP))
	MOVQ DX, AX
	JMP  gs16

gs4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   gfold
	GSUM(0, Y0, Y4, relu+80(FP))
	MOVQ DX, AX
	JMP  gs4

gfold:
	FOLD
	VADDPD       Y5, Y4, Y4
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VUNPCKHPD    X4, X4, X5
	VADDSD       X5, X4, X4

gtail:
	CMPQ   AX, CX
	JGE    gdone
	GTERM1(relu+80(FP))
	VADDSD X14, X0, X0
	VADDSD X12, X13, X13
	VMULSD X14, X13, X13
	VADDSD X13, X4, X4
	INCQ   AX
	JMP    gtail

gdone:
	VMOVSD X0, sumG+88(FP)
	VMOVSD X4, sumGX+96(FP)
	VZEROUPPER
	RET

// GRADDX writes invStd·(g·gamma − a − x̂·b) for the four lanes at off to
// dx (R8); a and b are in Y6 and Y7.
#define GRADDX(off, flag) \
	GTERM(off, flag)           \
	VMULPD  Y10, Y14, Y14      \
	VSUBPD  Y6, Y14, Y14       \
	VADDPD  Y12, Y13, Y13      \
	VMULPD  Y7, Y13, Y13       \
	VSUBPD  Y13, Y14, Y14      \
	VMULPD  Y9, Y14, Y14       \
	VMOVUPD Y14, off(R8)(AX*8)

// func normGradAVX(dx, dy, x []float64, mu, invStd, gamma, beta, a, b float64, relu bool)
TEXT ·normGradAVX(SB), NOSPLIT, $0-121
	MOVQ         dx_base+0(FP), R8
	MOVQ         dy_base+24(FP), DI
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	VBROADCASTSD mu+72(FP), Y8
	VBROADCASTSD invStd+80(FP), Y9
	VBROADCASTSD gamma+88(FP), Y10
	VBROADCASTSD beta+96(FP), Y11
	VBROADCASTSD a+104(FP), Y6
	VBROADCASTSD b+112(FP), Y7
	VXORPD       Y12, Y12, Y12
	XORQ         AX, AX

d8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JG   d4
	GRADDX(0, relu+120(FP))
	GRADDX(32, relu+120(FP))
	MOVQ DX, AX
	JMP  d8

d4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JG   dtail
	GRADDX(0, relu+120(FP))
	MOVQ DX, AX

dtail:
	CMPQ   AX, CX
	JGE    ddone
	GTERM1(relu+120(FP))
	VMULSD X10, X14, X14
	VSUBSD X6, X14, X14
	VADDSD X12, X13, X13
	VMULSD X7, X13, X13
	VSUBSD X13, X14, X14
	VMULSD X9, X14, X14
	VMOVSD X14, (R8)(AX*8)
	INCQ   AX
	JMP    dtail

ddone:
	VZEROUPPER
	RET
