package tensor

import "math"

// fma-tier panel loops. Every multiply-add here is contracted — acc =
// fma(a, b, acc), one rounding per step, chain strictly in ascending k order.
// That chain is what the VFMADD asm kernels and math.FMA both evaluate, so
// unlike the exact tier (where the vector kernel must copy the scalar
// expression tree verbatim), the fma tier is bit-identical across every
// dispatch boundary by construction: a fused chain has no grouping freedom.
//
// The main body of each panel runs on the C-resident 4×8 dot kernel
// (fmaDot4x8 of kernel_fma_amd64.s): eight YMM accumulators carry four C
// rows × eight columns across the whole kcb panel, so C is touched once per
// panel instead of once per k-quad and each B row streams once per four C
// rows. Row tails (rows % 4) and column tails (ncb % 8) fall back to the
// 2×4 quad-axpy kernels, and the scalar fallbacks walk k one step at a time
// with math.FMA — all three produce the same bits, because per element they
// evaluate the same ascending fused chain. (The scalar fallbacks are also
// slow: math.FMA without FMA hardware goes through a software double-double
// path. TierFromEnv refuses to default to the fma tier on such hosts;
// explicit SetTier callers get correct, slower results.)

// gemmPanelFMA is the fma-tier form of gemmPanel: C[rows×ncb] +=
// A[rows×kcb] · B with fused multiply-adds, B row p being b[offs[p]:][:ncb].
func gemmPanelFMA(rows, ncb, kcb int, a []float64, lda int, b []float64, offs []int, c []float64, ldc int) {
	vec := useFMA && ncb >= vecMinCols
	countPanel(TierFMA, vec)
	if !vec {
		gemmPanelFMAScalar(rows, ncb, kcb, a, lda, b, offs, c, ldc)
		return
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		a0 := a[i*lda : i*lda+kcb]
		a1 := a[(i+1)*lda : (i+1)*lda+kcb]
		a2 := a[(i+2)*lda : (i+2)*lda+kcb]
		a3 := a[(i+3)*lda : (i+3)*lda+kcb]
		ci := i * ldc
		j := 0
		for ; j+8 <= ncb; j += 8 {
			fmaDot4x8(kcb, a0, a1, a2, a3, b[j:], offs,
				c[ci+j:ci+j+8], c[ci+ldc+j:ci+ldc+j+8],
				c[ci+2*ldc+j:ci+2*ldc+j+8], c[ci+3*ldc+j:ci+3*ldc+j+8])
		}
		if j < ncb {
			gemmPanelFMAAxpy(4, ncb-j, kcb, a[i*lda:], lda, b[j:], offs, c[ci+j:], ldc)
		}
	}
	if i < rows {
		gemmPanelFMAAxpy(rows-i, ncb, kcb, a[i*lda:], lda, b, offs, c[i*ldc:], ldc)
	}
}

// gemmPanelFMAAxpy is the quad-axpy tail path of gemmPanelFMA: the 2×4
// kernels of the original fma-tier loop, serving the row and column ranges
// the 4×8 dot kernel cannot tile. Same ascending-k fused chain per element,
// so mixing the two inside one panel keeps every element bit-identical.
func gemmPanelFMAAxpy(rows, ncb, kcb int, a []float64, lda int, b []float64, offs []int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc : i*ldc+ncb]
		ci1 := c[(i+1)*ldc : (i+1)*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			axpyQuad2FMA(ci0, ci1,
				b[offs[p]:][:ncb], b[offs[p+1]:][:ncb], b[offs[p+2]:][:ncb], b[offs[p+3]:][:ncb],
				ai0[p:p+4], ai1[p:p+4])
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[offs[p]:][:ncb]
			for j, bv := range bp {
				ci0[j] = math.FMA(a0v, bv, ci0[j])
				ci1[j] = math.FMA(a1v, bv, ci1[j])
			}
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			axpyQuad1FMA(ci,
				b[offs[p]:][:ncb], b[offs[p+1]:][:ncb], b[offs[p+2]:][:ncb], b[offs[p+3]:][:ncb],
				ai[p:p+4])
		}
		for ; p < kcb; p++ {
			av := ai[p]
			bp := b[offs[p]:][:ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, bv, ci[j])
			}
		}
	}
}

// gemmPanelFMAScalar is the pure-Go fallback of gemmPanelFMA: the same fused
// ascending-k chain per element, via math.FMA.
func gemmPanelFMAScalar(rows, ncb, kcb int, a []float64, lda int, b []float64, offs []int, c []float64, ldc int) {
	for i := 0; i < rows; i++ {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc : i*ldc+ncb]
		for p, av := range ai {
			bp := b[offs[p]:][:ncb]
			for j, bv := range bp {
				ci[j] = math.FMA(av, bv, ci[j])
			}
		}
	}
}
