package tensor

// Vectorized panel loops. These mirror gemmPanel / gemmPanelRow exactly —
// same row pairing, same k-quad grouping, same tails — with the quad-axpy
// inner loop handed to the AVX kernels of kernel_amd64.s. Because each vector
// lane evaluates the scalar expression tree verbatim, the results are
// bit-identical to the scalar loops; gemmPanel dispatches here when the host
// has AVX and the panel is wide enough to amortize the call.

// vecMinCols is the narrowest C panel worth a vector call: below it the
// per-call overhead (slice setup, broadcast reloads) beats the lane win. The
// threshold is shared by both vector families — the exact tier's AVX kernels
// and the fma tier's FMA kernels (kernel_fma.go) — because the overhead
// it amortizes (per-call setup against per-lane wins) is the same regardless
// of which instruction the inner loop retires.
const vecMinCols = 8

// gemmPanelAVX is the vector form of gemmPanel.
func gemmPanelAVX(rows, ncb, kcb int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			axpyQuad2AVX(ci0, ci1,
				b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
				b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
				ai0[p:p+4], ai1[p:p+4])
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[p*ldb : p*ldb+ncb]
			for j, bv := range bp {
				ci0[j] += a0v * bv
				ci1[j] += a1v * bv
			}
		}
	}
	if i < rows {
		gemmPanelRowAVX(ncb, kcb, a[i*lda:i*lda+kcb], b, ldb, c[i*ldc:i*ldc+ncb])
	}
}

// gemmPanelRowAVX is the vector form of gemmPanelRow.
func gemmPanelRowAVX(ncb, kcb int, ai []float64, b []float64, ldb int, ci []float64) {
	p := 0
	for ; p+4 <= kcb; p += 4 {
		axpyQuad1AVX(ci,
			b[p*ldb:p*ldb+ncb], b[(p+1)*ldb:(p+1)*ldb+ncb],
			b[(p+2)*ldb:(p+2)*ldb+ncb], b[(p+3)*ldb:(p+3)*ldb+ncb],
			ai[p:p+4])
	}
	for ; p < kcb; p++ {
		av := ai[p]
		bp := b[p*ldb : p*ldb+ncb]
		for j, bv := range bp {
			ci[j] += av * bv
		}
	}
}
