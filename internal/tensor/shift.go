package tensor

import "fmt"

// Shifted-row products: the implicit-GEMM lowering of a stride-1 "same"
// convolution. Lay the input planes out with one gap of pad zeros between
// rows (row stride ld = w+pad) and pad zero rows above and below, and kernel
// tap (ki, kj) of channel ci becomes one contiguous window of that buffer,
// starting at ci·plane + ki·ld + kj, over the extended output grid of
// ld-wide rows. The windows hold exactly what im2col would copy into its
// rows (zeros where it writes padding), so the product reads them in place
// and the column matrix never exists. The panel loop is gemmPanel /
// gemmPanelAVX with the B row addressing swapped for shiftCursor — same row
// pairing, k-quad grouping and tails, same kernels — so every element of C is
// bit-identical to the product over the materialized matrix.

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
	ep.check(m, n)
	if ep.empty() {
		ep = nil
	}
	if k == 0 {
		gemmAssignEmptyK(m, n, c, ldc, ep)
		return
	}
	// The kh·kw tap windows of a channel overlap, so a kcb-row panel
	// touches only kcb/(kh·kw) channels of the image: a panel kh·kw times
	// wider than the engine's keeps the same footprint, and a VGG-sized
	// plane is one panel.
	ncs := ncBlock * kh * kw
	sh := shiftCursor{kh: kh, kw: kw, ld: ld, plane: plane}
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		ablk := pa.data[m*pc:]
		at := sh.seek(pc)
		for jc := 0; jc < n; jc += ncs {
			ncb := min(ncs, n-jc)
			if pc == 0 {
				zeroTile(m, ncb, c[jc:], ldc)
			}
			if useAVX && ncb >= vecMinCols {
				kernelVectorCount[TierExact].Add(1)
			} else {
				kernelScalarCount[TierExact].Add(1)
			}
			gemmShiftPanel(m, ncb, kcb, ablk, kcb, at, img[jc:], c[jc:], ldc)
			if pc+kcb == k && ep != nil {
				applyEpilogue(m, ncb, c[jc:], ldc, ep, 0, jc)
			}
		}
	}
}

// shiftCursor walks the B rows of a shifted-row product in k order: off is
// the offset of row (ci, ki, kj), and next steps to the row after it without
// a division.
type shiftCursor struct {
	kh, kw, ld, plane int
	off, ki, kj       int
}

// seek returns a cursor positioned on row p.
func (s shiftCursor) seek(p int) shiftCursor {
	taps := s.kh * s.kw
	s.ki, s.kj = p%taps/s.kw, p%taps%s.kw
	s.off = p/taps*s.plane + s.ki*s.ld + s.kj
	return s
}

// next advances the cursor one row and returns the new row's offset.
func (s *shiftCursor) next() int {
	s.kj++
	s.off++
	if s.kj == s.kw {
		s.kj = 0
		s.off += s.ld - s.kw
		s.ki++
		if s.ki == s.kh {
			s.ki = 0
			s.off += s.plane - s.kh*s.ld
		}
	}
	return s.off
}

// gemmShiftPanel is gemmPanel over shifted B rows: C[rows×ncb] +=
// A[rows×kcb] · B, B row p being b[off:off+ncb] for the p-th offset from at.
// It dispatches to the AVX kernels under the same rule as gemmPanel. The k
// tails (k = 27 and 18 on VGG13Mini's first convs at a quarter width) run
// scalar either way; reslicing every operand to ncb lets the compiler drop
// their bounds checks.
func gemmShiftPanel(rows, ncb, kcb int, a []float64, lda int, at shiftCursor, b []float64, c []float64, ldc int) {
	vec := useAVX && ncb >= vecMinCols
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc:][:ncb]
		ci1 := c[(i+1)*ldc:][:ncb]
		sh := at
		o0 := sh.off
		p := 0
		for ; p+4 <= kcb; p += 4 {
			o1 := sh.next()
			o2 := sh.next()
			o3 := sh.next()
			b0, b1, b2, b3 := b[o0:o0+ncb], b[o1:o1+ncb], b[o2:o2+ncb], b[o3:o3+ncb]
			if vec {
				axpyQuad2AVX(ci0, ci1, b0, b1, b2, b3, ai0[p:p+4], ai1[p:p+4])
			} else {
				a00, a01, a02, a03 := ai0[p], ai0[p+1], ai0[p+2], ai0[p+3]
				a10, a11, a12, a13 := ai1[p], ai1[p+1], ai1[p+2], ai1[p+3]
				for j, bv := range b0 {
					b1v, b2v, b3v := b1[j], b2[j], b3[j]
					ci0[j] += a00*bv + a01*b1v + a02*b2v + a03*b3v
					ci1[j] += a10*bv + a11*b1v + a12*b2v + a13*b3v
				}
			}
			o0 = sh.next()
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[o0:][:ncb]
			for j := range ci0 {
				bv := bp[j]
				ci0[j] += a0v * bv
				ci1[j] += a1v * bv
			}
			o0 = sh.next()
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc:][:ncb]
		sh := at
		o0 := sh.off
		p := 0
		for ; p+4 <= kcb; p += 4 {
			o1 := sh.next()
			o2 := sh.next()
			o3 := sh.next()
			b0, b1, b2, b3 := b[o0:o0+ncb], b[o1:o1+ncb], b[o2:o2+ncb], b[o3:o3+ncb]
			if vec {
				axpyQuad1AVX(ci, b0, b1, b2, b3, ai[p:p+4])
			} else {
				a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
				for j, bv := range b0 {
					ci[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			o0 = sh.next()
		}
		for ; p < kcb; p++ {
			av := ai[p]
			bp := b[o0:][:ncb]
			for j := range ci {
				ci[j] += av * bp[j]
			}
			o0 = sh.next()
		}
	}
}
