// AVX axpy micro-kernels and GemmShiftTB's dot tile. Each lane evaluates
// the Go loop's exact expression tree — mul, then adds in its order, no
// FMA — so results are bit-identical to the pure-Go loops. Every axpy kernel
// accumulates into C; the assign-mode (β=0) products zero their C tile
// before the first k-panel. The dot tile writes its eight dots to out. See
// kernel_amd64.go for contracts.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID

	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL CX, DI
	ANDL $(3<<27), DI
	CMPL DI, $(3<<27)
	JNE  noavx

	// XCR0 bits 1|2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpyQuad2AVX(c0, c1, b0, b1, b2, b3, a0, a1 []float64)
TEXT ·axpyQuad2AVX(SB), NOSPLIT, $0-192
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ c1_base+24(FP), SI
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11
	MOVQ a0_base+144(FP), R12
	MOVQ a1_base+168(FP), R13

	VBROADCASTSD 0(R12), Y0
	VBROADCASTSD 8(R12), Y1
	VBROADCASTSD 16(R12), Y2
	VBROADCASTSD 24(R12), Y3
	VBROADCASTSD 0(R13), Y4
	VBROADCASTSD 8(R13), Y5
	VBROADCASTSD 16(R13), Y6
	VBROADCASTSD 24(R13), Y7

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

loop4:
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10)(AX*8), Y10
	VMOVUPD (R11)(AX*8), Y11

	// Row 0: ((a00·b0 + a01·b1) + a02·b2) + a03·b3, then += into C.
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(AX*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(AX*8)

	// Row 1.
	VMULPD  Y8, Y4, Y12
	VMULPD  Y9, Y5, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y6, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y7, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (SI)(AX*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (SI)(AX*8)

	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMULSD X11, X3, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(AX*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(AX*8)

	VMULSD X8, X4, X12
	VMULSD X9, X5, X13
	VADDSD X13, X12, X12
	VMULSD X10, X6, X13
	VADDSD X13, X12, X12
	VMULSD X11, X7, X13
	VADDSD X13, X12, X12
	VMOVSD (SI)(AX*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (SI)(AX*8)

	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpyQuad1AVX(c0, b0, b1, b2, b3, a0 []float64)
TEXT ·axpyQuad1AVX(SB), NOSPLIT, $0-144
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	MOVQ a0_base+120(FP), R12

	VBROADCASTSD 0(R12), Y0
	VBROADCASTSD 8(R12), Y1
	VBROADCASTSD 16(R12), Y2
	VBROADCASTSD 24(R12), Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

rloop4:
	CMPQ AX, DX
	JGE  rtail
	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD (R9)(AX*8), Y9
	VMOVUPD (R10)(AX*8), Y10
	VMOVUPD (R11)(AX*8), Y11

	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(AX*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(AX*8)

	ADDQ $4, AX
	JMP  rloop4

rtail:
	CMPQ AX, CX
	JGE  rdone
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11

	VMULSD X8, X0, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMULSD X11, X3, X13
	VADDSD X13, X12, X12
	VMOVSD (DI)(AX*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(AX*8)

	INCQ AX
	JMP  rtail

rdone:
	VZEROUPPER
	RET

// func axpyStep2AVX(c0, c1, b []float64, a0, a1 float64)
//
// One k step of the row pair: t = a·b (VMULPD), then c = c + t (VADDPD with
// C as the first source), the scalar `c += a * b` per lane.
TEXT ·axpyStep2AVX(SB), NOSPLIT, $0-88
	MOVQ         c0_base+0(FP), DI
	MOVQ         c0_len+8(FP), CX
	MOVQ         c1_base+24(FP), SI
	MOVQ         b_base+48(FP), R8
	VBROADCASTSD a0+72(FP), Y0
	VBROADCASTSD a1+80(FP), Y1

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

sloop4:
	CMPQ    AX, DX
	JGE     stail
	VMOVUPD (R8)(AX*8), Y8
	VMULPD  Y8, Y0, Y12
	VMULPD  Y8, Y1, Y13
	VMOVUPD (DI)(AX*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y15
	VADDPD  Y13, Y15, Y15
	VMOVUPD Y15, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     sloop4

stail:
	CMPQ   AX, CX
	JGE    sdone
	VMOVSD (R8)(AX*8), X8
	VMULSD X8, X0, X12
	VMULSD X8, X1, X13
	VMOVSD (DI)(AX*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X15
	VADDSD X13, X15, X15
	VMOVSD X15, (SI)(AX*8)
	INCQ   AX
	JMP    stail

sdone:
	VZEROUPPER
	RET

// func axpyStep1AVX(c0, b []float64, a0 float64)
TEXT ·axpyStep1AVX(SB), NOSPLIT, $0-56
	MOVQ         c0_base+0(FP), DI
	MOVQ         c0_len+8(FP), CX
	MOVQ         b_base+24(FP), R8
	VBROADCASTSD a0+48(FP), Y0

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

s1loop4:
	CMPQ    AX, DX
	JGE     s1tail
	VMOVUPD (R8)(AX*8), Y8
	VMULPD  Y8, Y0, Y12
	VMOVUPD (DI)(AX*8), Y14
	VADDPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     s1loop4

s1tail:
	CMPQ   AX, CX
	JGE    s1done
	VMOVSD (R8)(AX*8), X8
	VMULSD X8, X0, X12
	VMOVSD (DI)(AX*8), X14
	VADDSD X12, X14, X14
	VMOVSD X14, (DI)(AX*8)
	INCQ   AX
	JMP    s1tail

s1done:
	VZEROUPPER
	RET

// dotTailMask holds three all-ones lanes then three zero lanes: the four
// lanes from element 3−r on mask a load to its first r elements.
DATA dotTailMask<>+0(SB)/8, $-1
DATA dotTailMask<>+8(SB)/8, $-1
DATA dotTailMask<>+16(SB)/8, $-1
DATA dotTailMask<>+24(SB)/8, $0
DATA dotTailMask<>+32(SB)/8, $0
DATA dotTailMask<>+40(SB)/8, $0
GLOBL dotTailMask<>(SB), RODATA|NOPTR, $48

// DOTSTEP multiplies the A rows in Y8 and Y9 by one window in bv and adds
// the products into that window's accumulators: acc0 for row 0, acc1 for
// row 1 — t = a·b (VMULPD), then acc = acc + t, the Go loop's l += a·b.
#define DOTSTEP(bv, acc0, acc1) \
	VMULPD bv, Y8, Y11  \
	VADDPD Y11, acc0, acc0 \
	VMULPD bv, Y9, Y12  \
	VADDPD Y12, acc1, acc1

// DOTFOLD folds the four window accumulators q0..q3 of one row to
// [dot0, dot1, dot2, dot3] in dst, each (l0+l2)+(l1+l3): the 128-bit
// halves of (q0, q2) and of (q1, q3) add lane-wise to l0+l2, l1+l3, and
// VHADDPD sums those pairs in window order.
#define DOTFOLD(q0, q1, q2, q3, dst) \
	VPERM2F128 $0x20, q2, q0, Y8  \
	VPERM2F128 $0x31, q2, q0, Y9  \
	VADDPD     Y9, Y8, Y8         \
	VPERM2F128 $0x20, q3, q1, Y10 \
	VPERM2F128 $0x31, q3, q1, Y11 \
	VADDPD     Y11, Y10, Y10      \
	VHADDPD    Y10, Y8, dst

// func dot2x4AVX(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64)
//
// Accumulators: Y0..Y3 row 0 against windows 0..3, Y4..Y7 row 1.
TEXT ·dot2x4AVX(SB), NOSPLIT, $0-152
	MOVQ a0_base+0(FP), SI
	MOVQ a0_len+8(FP), CX
	MOVQ a1_base+24(FP), DI
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11
	MOVQ out+144(FP), R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

dloop4:
	CMPQ    AX, DX
	JGE     dtail
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	DOTSTEP(Y10, Y0, Y4)
	VMOVUPD (R9)(AX*8), Y10
	DOTSTEP(Y10, Y1, Y5)
	VMOVUPD (R10)(AX*8), Y10
	DOTSTEP(Y10, Y2, Y6)
	VMOVUPD (R11)(AX*8), Y10
	DOTSTEP(Y10, Y3, Y7)
	ADDQ    $4, AX
	JMP     dloop4

dtail:
	// r = len mod 4 elements left: lanes 0..r−1 load, the rest read +0.
	MOVQ       CX, BX
	SUBQ       AX, BX
	JZ         dfold
	NEGQ       BX
	LEAQ       dotTailMask<>(SB), R13
	VMOVUPD    24(R13)(BX*8), Y13
	VMASKMOVPD (SI)(AX*8), Y13, Y8
	VMASKMOVPD (DI)(AX*8), Y13, Y9
	VMASKMOVPD (R8)(AX*8), Y13, Y10
	DOTSTEP(Y10, Y0, Y4)
	VMASKMOVPD (R9)(AX*8), Y13, Y10
	DOTSTEP(Y10, Y1, Y5)
	VMASKMOVPD (R10)(AX*8), Y13, Y10
	DOTSTEP(Y10, Y2, Y6)
	VMASKMOVPD (R11)(AX*8), Y13, Y10
	DOTSTEP(Y10, Y3, Y7)

dfold:
	DOTFOLD(Y0, Y1, Y2, Y3, Y14)
	VMOVUPD Y14, 0(R12)
	DOTFOLD(Y4, Y5, Y6, Y7, Y15)
	VMOVUPD Y15, 32(R12)
	VZEROUPPER
	RET
