package tensor

import "fmt"

// Persistent pre-packed operand panels. The blocked engine (gemm.go) packs
// transposed operands into cache-sized scratch panels on every call, and the
// straight operands it streams still pay strided reads when the caller hands
// in a prefix slice of a wider weight buffer. At inference time the weight
// operand of every GEMM is immutable, so that packing is pure waste after the
// first query: a PackedMat performs it exactly once, laying the operand out in
// the micro-panel order the blocked loops consume, and the GemmPackedExT /
// GemmTBPackedExT entry points hand it to the engine as a packed operand.
//
// The panel geometry matches the engine's blocking (kcBlock × ncBlock), so a
// packed product visits memory in the same order as an unpacked one and the
// per-element accumulation order is unchanged — packed results are
// bit-identical to the unpacked blocked engine. (A wider 4×4 / 2×8 scalar
// micro-kernel over the packed panels was measured and rejected: Go's scalar
// codegen spills its sixteen live multipliers and loses 20-40% to the 2×4
// kernel at every serving shape; the kernel win comes instead from the
// vectorized quad-axpy of kernel_amd64.go, which every operand kind shares.)
//
// A PackedMat is immutable after construction and safe for any number of
// concurrent readers: every server shard streams the same pack.

// PackedMat is an operand repacked into the blocked engine's micro-panel
// layout. Two layouts exist, chosen by the constructor:
//
//   - A-layout (PackA): the m×k left operand, stored as one m×kcb row-major
//     panel (ld = kcb) per kc block, panels concatenated in k order. Row i of
//     k-panel pc starts at m·pc + i·kcb.
//   - B-layout (PackTB): the k×n right operand, stored as kcb×ncb
//     row-major tiles (ld = ncb), k-major then n: the tile covering
//     (pc, jc) starts at pc·n + kcb·jc.
//
// Both layouts hold exactly rows·cols elements — edge panels are stored at
// their ragged size, not padded — so a pack costs the same memory as the
// operand it shadows.
type PackedMat struct {
	rows, cols int // logical operand shape: A[m×k] or B[k×n]
	aLayout    bool
	data       []float64
}

// Dims returns the logical (rows, cols) of the packed operand: (m, k) for an
// A-layout pack, (k, n) for a B-layout pack.
func (p *PackedMat) Dims() (rows, cols int) { return p.rows, p.cols }

// Bytes reports the resident size of the pack's panel storage.
func (p *PackedMat) Bytes() int { return len(p.data) * 8 }

// PackA packs the straight left operand A[m×k] (row stride lda) into A-layout
// panels for GemmPackedExT.
func PackA(m, k int, a []float64, lda int) *PackedMat {
	checkMat("PackA A", m, k, lda, len(a))
	p := &PackedMat{rows: m, cols: k, aLayout: true, data: make([]float64, m*k)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		dst := p.data[m*pc:]
		for i := 0; i < m; i++ {
			copy(dst[i*kcb:(i+1)*kcb], a[i*lda+pc:i*lda+pc+kcb])
		}
	}
	return p
}

// PackTB packs a transposed right operand — B stored [n×k] with row stride
// ldb, consumed as Bᵀ[k×n] (the GemmTB orientation: a dense layer's
// [Out × In] weight) — into B-layout tiles for GemmTBPackedExT.
func PackTB(n, k int, b []float64, ldb int) *PackedMat {
	checkMat("PackTB B", n, k, ldb, len(b))
	p := &PackedMat{rows: k, cols: n, data: make([]float64, k*n)}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		for jc := 0; jc < n; jc += ncBlock {
			ncb := min(ncBlock, n-jc)
			// tile[p×ncb] = B[jc:jc+ncb, pc:pc+kcb]ᵀ, exactly the panel the
			// unpacked engine re-packs per call.
			packTrans(p.data[pc*n+kcb*jc:], kcb, ncb, b, ldb, jc, pc)
		}
	}
	return p
}

// GemmTBPrefersPacked reports whether a C[m×n] = A·Bᵀ product of the given
// shape runs on the blocked engine, where the persistent packed path is
// faster and bit-identical to the unpacked one. Below the small-product
// threshold GemmTB/GemmTBEx use the strided dot-product kernel instead —
// there the pack would change the accumulation order and save nothing, so
// callers skip packing for those widths.
func GemmTBPrefersPacked(m, n, k int) bool { return m*n*k >= smallGemmFlops }

// GemmPackedExT computes C[m×n] = epilogue(A · B) on an explicit engine tier
// with a pre-packed A operand (PackA) and a streamed B — assign mode, like
// GemmEx. This is the convolution orientation: the immutable weight matrix
// is A, the per-call im2col matrix is B. On the exact tier results are
// bit-identical to GemmEx on the same operands: the packed panels preserve
// the blocked engine's per-element accumulation order.
func GemmPackedExT(tier EngineTier, m, n, k int, pa *PackedMat, b []float64, ldb int, c []float64, ldc int, ep *Epilogue) {
	if pa == nil || !pa.aLayout {
		panic("tensor: GemmPackedEx: A operand is not an A-layout pack (PackA)")
	}
	if pa.rows != m || pa.cols != k {
		panic(fmt.Sprintf("tensor: GemmPackedEx: packed A is %d×%d, product wants %d×%d", pa.rows, pa.cols, m, k))
	}
	checkMat("GemmPackedEx B", k, n, ldb, len(b))
	checkMat("GemmPackedEx C", m, n, ldc, len(c))
	gemmAssign(tier, m, n, k, operand{kind: opPacked, data: pa.data}, operand{data: b, ld: ldb}, c, ldc, ep)
}

// GemmTBPackedExT computes C[m×n] = epilogue(A · Bᵀ) on an explicit engine
// tier with B pre-packed (PackTB of the [n×k]-stored operand) and a streamed
// A — assign mode, like GemmTBEx. This is the dense-layer orientation: the
// immutable [Out × In] weight is Bᵀ, the activations are A. Results are
// bit-identical to the unpacked blocked engine on the same tier and operands
// (on the exact tier, to GemmTBEx above its small-product threshold).
func GemmTBPackedExT(tier EngineTier, m, n, k int, a []float64, lda int, pb *PackedMat, c []float64, ldc int, ep *Epilogue) {
	if pb == nil || pb.aLayout {
		panic("tensor: GemmTBPackedEx: B operand is not a B-layout pack (PackTB)")
	}
	if pb.rows != k || pb.cols != n {
		panic(fmt.Sprintf("tensor: GemmTBPackedEx: packed B is %d×%d, product wants %d×%d", pb.rows, pb.cols, k, n))
	}
	checkMat("GemmTBPackedEx A", m, k, lda, len(a))
	checkMat("GemmTBPackedEx C", m, n, ldc, len(c))
	gemmAssign(tier, m, n, k, operand{data: a, ld: lda}, operand{kind: opPacked, data: pb.data}, c, ldc, ep)
}
