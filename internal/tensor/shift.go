package tensor

import "fmt"

// Shifted-row products: the implicit-GEMM lowering of a stride-1 "same"
// convolution. Lay the input planes out with one gap of pad zeros between
// rows (row stride ld = w+pad) and pad zero rows above and below, and kernel
// tap (ki, kj) of channel ci becomes one contiguous window of that buffer,
// starting at ci·plane + ki·ld + kj, over the extended output grid of
// ld-wide rows. The windows hold exactly what im2col would copy into its
// rows (zeros where it writes padding), so the product reads them in place
// and the column matrix never exists. The product is the blocked engine with
// B as a shifted-row operand: only the offsets its panel loop reads B rows at
// differ from a stored matrix's, so every element of C is bit-identical to
// the product over the materialized matrix.

// GemmPackedShiftEx computes C[m×n] = epilogue(A · B) on the exact tier like
// GemmPackedExT, but B is never materialized: its k rows (k = the pack's
// column count, a multiple of kh·kw) are windows of img, row p = (ci·kh +
// ki)·kw + kj being img[ci·plane + ki·ld + kj:][:n]. Column epilogue vectors
// index the n columns of C as for any product. There is no fma-tier twin: its
// C-resident 4×8 kernel needs B rows at a fixed stride, and on the
// column matrix it beat this loop at full width (DESIGN §8).
func GemmPackedShiftEx(m, n, kh, kw int, pa *PackedMat, img []float64, ld, plane int, c []float64, ldc int, ep *Epilogue) {
	if pa == nil || !pa.aLayout {
		panic("tensor: GemmPackedShiftEx: A operand is not an A-layout pack (PackA)")
	}
	k := pa.cols
	if pa.rows != m || kh <= 0 || kw <= 0 || k%(kh*kw) != 0 {
		panic(fmt.Sprintf("tensor: GemmPackedShiftEx: packed A is %d×%d, product wants %d rows of %d×%d taps", pa.rows, k, m, kh, kw))
	}
	if ld < 0 || plane < 0 {
		panic(fmt.Sprintf("tensor: GemmPackedShiftEx: negative row stride %d or plane %d", ld, plane))
	}
	if k > 0 && n > 0 {
		last := (k/(kh*kw)-1)*plane + (kh-1)*ld + kw - 1
		checkVec("GemmPackedShiftEx image", last+n, len(img))
	}
	checkMat("GemmPackedShiftEx C", m, n, ldc, len(c))
	gemmAssign(TierExact, m, n, k, operand{kind: opPacked, data: pa.data},
		operand{kind: opShift, data: img, ld: ld, kh: kh, kw: kw, plane: plane}, c, ldc, ep)
}

// CopyRows copies a rows×cols block from src, row stride lds, into dst, row
// stride ldd; the two must not overlap. It is the shifted-row lowering's
// plane copy, one call per channel plane into the padded image and one out
// of the extended grid: on VGG13Mini its rows are 4–16 elements, where a
// copy call per row costs more than the bytes it moves.
func CopyRows(rows, cols int, dst []float64, ldd int, src []float64, lds int) {
	checkMat("CopyRows dst", rows, cols, ldd, len(dst))
	checkMat("CopyRows src", rows, cols, lds, len(src))
	if useAVX && cols >= 4 {
		copyRowsAVX(dst, ldd, src, lds, rows, cols)
		return
	}
	for i := 0; i < rows; i++ {
		copy(dst[i*ldd:i*ldd+cols], src[i*lds:i*lds+cols])
	}
}
