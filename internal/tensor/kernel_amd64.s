// AVX axpy micro-kernels. Each lane evaluates the scalar kernel's exact
// expression tree — mul, then left-to-right adds, no FMA — so results are
// bit-identical to the pure-Go loops. Every kernel accumulates into C; the
// assign-mode (β=0) products zero their C tile before the first k-panel.
// See kernel_amd64.go for contracts.

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
