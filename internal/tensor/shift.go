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
// the product over the materialized matrix. GemmShiftTB reads the same
// windows as the rows of a Bᵀ: a same convolution's weight gradient, as dot
// products.

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
	if pa.rows != m {
		panic(fmt.Sprintf("tensor: GemmPackedShiftEx: packed A has %d rows, product wants %d", pa.rows, m))
	}
	b := shiftRows("GemmPackedShiftEx", pa.cols, n, kh, kw, img, ld, plane)
	checkMat("GemmPackedShiftEx C", m, n, ldc, len(c))
	gemmAssign(TierExact, m, n, pa.cols, operand{kind: opPacked, data: pa.data}, b, c, ldc, ep)
}

// GemmShiftEx is GemmPackedShiftEx with a strided A[m×k] (row stride lda)
// in place of the pack: training's same convolutions, whose forward weight
// prefix and flipped data-gradient kernel change every step and so are never
// packed. The product is the same panel loop over the same B offsets, so it
// is bit-identical to GemmEx over the materialized column matrix.
func GemmShiftEx(m, n, k, kh, kw int, a []float64, lda int, img []float64, ld, plane int, c []float64, ldc int, ep *Epilogue) {
	checkMat("GemmShiftEx A", m, k, lda, len(a))
	b := shiftRows("GemmShiftEx", k, n, kh, kw, img, ld, plane)
	checkMat("GemmShiftEx C", m, n, ldc, len(c))
	gemmAssign(TierExact, m, n, k, operand{data: a, ld: lda}, b, c, ldc, ep)
}

// shiftRows validates k tap windows of length n in img — k a multiple of
// kh·kw, window (ci·kh + ki)·kw + kj at ci·plane + ki·ld + kj — and returns
// them as a shifted-row operand.
func shiftRows(name string, k, n, kh, kw int, img []float64, ld, plane int) operand {
	if kh <= 0 || kw <= 0 || k%(kh*kw) != 0 {
		panic(fmt.Sprintf("tensor: %s: %d windows are not whole channels of %d×%d taps", name, k, kh, kw))
	}
	if ld < 0 || plane < 0 {
		panic(fmt.Sprintf("tensor: %s: negative row stride %d or plane %d", name, ld, plane))
	}
	if k > 0 && n > 0 {
		if need := (k/(kh*kw)-1)*plane + (kh-1)*ld + kw - 1 + n; need > len(img) {
			panic(fmt.Sprintf("tensor: %s image buffer too short: need %d, have %d", name, need, len(img)))
		}
	}
	return operand{kind: opShift, data: img, ld: ld, kh: kh, kw: kw, plane: plane}
}

// GemmShiftTB computes C[m×n] += A[m×k] · Bᵀ where B's n rows are the tap
// windows of img, row q = (ci·kh + ki)·kw + kj being img[ci·plane + ki·ld +
// kj:][:k] (n a multiple of kh·kw). It is a same convolution's weight
// gradient, dW[oc, q] = Σ_j dy[oc, j]·window_q[j], with A the output gradient
// on the shifted lowering's extended grid: the windows are read in place, so
// no column matrix is built and no transpose packed. Each element of C gets
// one dot product from the dot tile — two A rows against four windows — in a
// fixed order: lane l (of four) sums the products at j ≡ l (mod 4), mul then
// add, never fused, and the lanes fold as (l0+l2)+(l1+l3) before the add
// into C. The AVX body and the Go loop (dot2x4) evaluate that order verbatim,
// so the result does not depend on which one ran. The call counts as one
// exact-tier kernel dispatch.
func GemmShiftTB(m, n, k, kh, kw int, a []float64, lda int, img []float64, ld, plane int, c []float64, ldc int) {
	checkMat("GemmShiftTB A", m, k, lda, len(a))
	b := shiftRows("GemmShiftTB", n, k, kh, kw, img, ld, plane)
	checkMat("GemmShiftTB C", m, n, ldc, len(c))
	if m == 0 || n == 0 {
		return
	}
	vec := useAVX && k >= 4
	countPanel(TierExact, vec)
	var offs [4]int
	var out [8]float64
	for q := 0; q < n; q += 4 {
		nq := min(4, n-q)
		// A short last quad repeats its last window; the dots it adds
		// for the copies are dropped.
		b.rowOffsets(offs[:nq], q, 0)
		for t := nq; t < 4; t++ {
			offs[t] = offs[nq-1]
		}
		b0, b1, b2, b3 := img[offs[0]:][:k], img[offs[1]:][:k], img[offs[2]:][:k], img[offs[3]:][:k]
		for i := 0; i < m; i += 2 {
			a0 := a[i*lda:][:k]
			a1 := a0 // an odd last row pairs with itself
			if i+1 < m {
				a1 = a[(i+1)*lda:][:k]
			}
			if vec {
				dot2x4AVX(a0, a1, b0, b1, b2, b3, &out)
			} else {
				dot2x4(a0, a1, b0, b1, b2, b3, &out)
			}
			c0 := c[i*ldc+q:][:nq]
			for t := range c0 {
				c0[t] += out[t]
			}
			if i+1 < m {
				c1 := c[(i+1)*ldc+q:][:nq]
				for t := range c1 {
					c1[t] += out[4+t]
				}
			}
		}
	}
}

// dot2x4 is the dot tile in Go — the twin of dot2x4AVX, and what hosts
// without AVX run: out[4r+t] is the dot product of row r (a0, a1) with
// window t (b0…b3) over len(a0) elements, in GemmShiftTB's lane order.
func dot2x4(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	for t, b := range [4][]float64{b0, b1, b2, b3} {
		out[t] = dotLanes(a0, b)
		out[4+t] = dotLanes(a1, b)
	}
}

// dotLanes is one element of the dot tile: four lanes, lane l summing
// a[j]·b[j] for j ≡ l (mod 4), folded (l0+l2)+(l1+l3).
func dotLanes(a, b []float64) float64 {
	b = b[:len(a)]
	var l0, l1, l2, l3 float64
	j := 0
	for ; j+4 <= len(a); j += 4 {
		l0 += a[j] * b[j]
		l1 += a[j+1] * b[j+1]
		l2 += a[j+2] * b[j+2]
		l3 += a[j+3] * b[j+3]
	}
	if j < len(a) {
		l0 += a[j] * b[j]
	}
	if j+1 < len(a) {
		l1 += a[j+1] * b[j+1]
	}
	if j+2 < len(a) {
		l2 += a[j+2] * b[j+2]
	}
	return (l0 + l2) + (l1 + l3)
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
