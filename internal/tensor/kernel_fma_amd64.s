// FMA axpy micro-kernels (fma-tier vector path). Each lane evaluates the
// fused chain acc = fma(a3,b3, fma(a2,b2, fma(a1,b1, fma(a0,b0, acc)))) —
// one rounding per multiply-add, matching math.FMA in the scalar loops — so
// the fma tier stays bit-deterministic across the vector/scalar boundary.
// Every kernel accumulates into C; the assign-mode (β=0) products zero their
// C tile before the first k-panel. See kernel_fma_amd64.go for contracts.

#include "textflag.h"

// func cpuHasFMA() bool
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID

	// Need FMA (ECX bit 12), OSXSAVE (bit 27) and AVX (bit 28).
	MOVL CX, DI
	ANDL $(1<<12 | 3<<27), DI
	CMPL DI, $(1<<12 | 3<<27)
	JNE  nofma

	// XCR0 bits 1|2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
	MOVB $0, ret+0(FP)
	RET

// func axpyQuad2FMA(c0, c1, b0, b1, b2, b3, a0, a1 []float64)
TEXT ·axpyQuad2FMA(SB), NOSPLIT, $0-192
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

	// Row 0: fused chain seeded from C.
	VMOVUPD     (DI)(AX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VMOVUPD     Y12, (DI)(AX*8)

	// Row 1.
	VMOVUPD     (SI)(AX*8), Y12
	VFMADD231PD Y8, Y4, Y12
	VFMADD231PD Y9, Y5, Y12
	VFMADD231PD Y10, Y6, Y12
	VFMADD231PD Y11, Y7, Y12
	VMOVUPD     Y12, (SI)(AX*8)

	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11

	VMOVSD      (DI)(AX*8), X12
	VFMADD231SD X8, X0, X12
	VFMADD231SD X9, X1, X12
	VFMADD231SD X10, X2, X12
	VFMADD231SD X11, X3, X12
	VMOVSD      X12, (DI)(AX*8)

	VMOVSD      (SI)(AX*8), X12
	VFMADD231SD X8, X4, X12
	VFMADD231SD X9, X5, X12
	VFMADD231SD X10, X6, X12
	VFMADD231SD X11, X7, X12
	VMOVSD      X12, (SI)(AX*8)

	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpyQuad1FMA(c0, b0, b1, b2, b3, a0 []float64)
TEXT ·axpyQuad1FMA(SB), NOSPLIT, $0-144
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

	VMOVUPD     (DI)(AX*8), Y12
	VFMADD231PD Y8, Y0, Y12
	VFMADD231PD Y9, Y1, Y12
	VFMADD231PD Y10, Y2, Y12
	VFMADD231PD Y11, Y3, Y12
	VMOVUPD     Y12, (DI)(AX*8)

	ADDQ $4, AX
	JMP  rloop4

rtail:
	CMPQ AX, CX
	JGE  rdone
	VMOVSD (R8)(AX*8), X8
	VMOVSD (R9)(AX*8), X9
	VMOVSD (R10)(AX*8), X10
	VMOVSD (R11)(AX*8), X11

	VMOVSD      (DI)(AX*8), X12
	VFMADD231SD X8, X0, X12
	VFMADD231SD X9, X1, X12
	VFMADD231SD X10, X2, X12
	VFMADD231SD X11, X3, X12
	VMOVSD      X12, (DI)(AX*8)

	INCQ AX
	JMP  rtail

rdone:
	VZEROUPPER
	RET

// func fmaDot4x8(kcb int, a0, a1, a2, a3, b []float64, offs []int, c0, c1, c2, c3 []float64)
//
// C-resident 4×8 dot micro-kernel: eight YMM accumulators (4 C rows × 8
// columns) are loaded once, carry the fused chain across the entire kcb
// panel, and store once — C traffic drops from one read+write per k-quad
// (the axpy kernels above) to one per panel, and each B row is streamed
// once per four C rows instead of per two. Per element the chain is the
// same ascending-k acc = fma(a,b,acc) the axpy kernels and math.FMA
// evaluate, so results stay bit-identical across all three paths. B row p
// starts offs[p] elements into b, so stored and shifted rows run alike.
TEXT ·fmaDot4x8(SB), NOSPLIT, $0-248
	MOVQ kcb+0(FP), CX
	MOVQ a0_base+8(FP), R8
	MOVQ a1_base+32(FP), R9
	MOVQ a2_base+56(FP), R10
	MOVQ a3_base+80(FP), R11
	MOVQ b_base+104(FP), SI
	MOVQ offs_base+128(FP), R12
	MOVQ c0_base+152(FP), DI
	MOVQ c1_base+176(FP), AX
	MOVQ c2_base+200(FP), BX
	MOVQ c3_base+224(FP), DX

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (AX), Y2
	VMOVUPD 32(AX), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7

dloop:
	MOVQ         (R12), R13
	VMOVUPD      (SI)(R13*8), Y8
	VMOVUPD      32(SI)(R13*8), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R9), Y11
	VBROADCASTSD (R10), Y12
	VBROADCASTSD (R11), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         CX
	JNZ          dloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET
