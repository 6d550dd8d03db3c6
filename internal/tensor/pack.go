package tensor

import "fmt"

// Persistent pre-packed Bᵀ panels. The blocked engine (gemm.go) repacks a
// transposed operand into cache-sized scratch panels on every call. A served
// dense layer's weight is immutable and consumed transposed, so that repack
// is pure waste after the first query: a PackedMat performs it exactly once,
// laying the operand out in the tile order the blocked loops consume, and
// GemmTBPackedExT hands it to the engine as a packed operand. A straight
// operand (a served conv's weight, the A of its product) is never repacked,
// so it is read in place as a strided prefix of the parent buffer and has no
// pack: an A-side pack of it measured the same as the prefix within noise
// (63–75 µs against 63–79 µs at 32×64×288), and cost a copy per width.
//
// The tile geometry matches the engine's blocking (kcBlock × ncBlock), so a
// packed product visits memory in the same order as an unpacked one and the
// per-element accumulation order is unchanged — packed results are
// bit-identical to the unpacked blocked engine. (A wider 4×4 / 2×8 scalar
// micro-kernel over packed panels was measured and rejected: Go's scalar
// codegen spills its sixteen live multipliers and loses 20-40% to the 2×4
// kernel at every serving shape; the kernel win comes instead from the
// vectorized quad-axpy of kernel_amd64.go, which every operand kind shares.)
//
// A PackedMat is immutable after construction and safe for any number of
// concurrent readers: every server shard streams the same pack.

// PackedMat is the right operand Bᵀ[k×n] of a dense product (PackTB),
// stored as kcb×ncb row-major tiles (ld = ncb), k-major then n: the tile
// covering (pc, jc) starts at pc·n + kcb·jc. Edge tiles are stored at their
// ragged size, not padded, so a pack costs the same memory as the operand it
// shadows.
type PackedMat struct {
	rows, cols int // logical operand shape B[k×n]
	data       []float64
}

// Dims returns the logical (k, n) of the packed operand.
func (p *PackedMat) Dims() (rows, cols int) { return p.rows, p.cols }

// Bytes reports the resident size of the pack's tile storage.
func (p *PackedMat) Bytes() int { return len(p.data) * 8 }

// PackTB packs a transposed right operand — B stored [n×k] with row stride
// ldb, consumed as Bᵀ[k×n] (the GemmTB orientation: a dense layer's
// [Out × In] weight) — into tiles for GemmTBPackedExT.
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

// GemmTBPackedExT computes C[m×n] = epilogue(A · Bᵀ) on an explicit engine
// tier with B pre-packed (PackTB of the [n×k]-stored operand) and a streamed
// A — assign mode, like GemmTBEx. This is the dense-layer orientation: the
// immutable [Out × In] weight is Bᵀ, the activations are A. Results are
// bit-identical to the unpacked blocked engine on the same tier and operands
// (on the exact tier, to GemmTBEx above its small-product threshold).
func GemmTBPackedExT(tier EngineTier, m, n, k int, a []float64, lda int, pb *PackedMat, c []float64, ldc int, ep *Epilogue) {
	if pb == nil {
		panic("tensor: GemmTBPackedEx: nil B pack")
	}
	if pb.rows != k || pb.cols != n {
		panic(fmt.Sprintf("tensor: GemmTBPackedEx: packed B is %d×%d, product wants %d×%d", pb.rows, pb.cols, k, n))
	}
	checkMat("GemmTBPackedEx A", m, k, lda, len(a))
	checkMat("GemmTBPackedEx C", m, n, ldc, len(c))
	gemmAssign(tier, m, n, k, operand{data: a, ld: lda}, operand{kind: opPacked, data: pb.data}, c, ldc, ep)
}
