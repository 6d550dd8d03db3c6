package tensor

// Im2Col unrolls one image of shape [channels, h, w] (row-major in src) into
// a column matrix col of shape [(channels*kh*kw) × (outH*outW)], so that a
// convolution becomes a single GEMM with the kernel matrix
// [outChannels × (channels*kh*kw)].
//
// Slicing-aware layers pass only the active prefix of channels; src must hold
// at least channels*h*w values and col at least channels*kh*kw*outH*outW.
// Every element of the column matrix is written (padding taps included), so
// col may be uninitialized.
func Im2Col(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64) (outH, outW int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	// For a fixed kernel tap kj, the in-range output columns are those with
	// 0 ≤ ox·stride − pad + kj < w; hoisting that interval out of the inner
	// loop replaces the per-element bounds test with two zero fills and one
	// contiguous copy (stride 1) or a branch-free gather (stride > 1).
	idx := 0
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				// ox ∈ [lo, hi) reads inside the row; outside is padding.
				// Both bounds clamp to outW: a kernel tap whose reach
				// exceeds the padded row (kw > w+pad) is padding at every
				// output column.
				lo := 0
				if pad > kj {
					lo = min((pad-kj+stride-1)/stride, outW)
				}
				hi := 0
				if last := w - 1 + pad - kj; last >= 0 {
					hi = min(last/stride, outW-1) + 1
				}
				if hi < lo {
					hi = lo
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					rowBase := (idx*outH + oy) * outW
					dst := col[rowBase : rowBase+outW]
					if iy < 0 || iy >= h {
						for j := range dst {
							dst[j] = 0
						}
						continue
					}
					srcRow := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < lo; ox++ {
						dst[ox] = 0
					}
					if hi <= lo {
						// No in-range columns for this tap (kernel reach
						// beyond the padded row): nothing to copy, and
						// lo-pad+kj may be negative.
					} else if stride == 1 {
						ix0 := lo - pad + kj
						copy(dst[lo:hi], srcRow[ix0:ix0+hi-lo])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[ox] = srcRow[ox*stride-pad+kj]
						}
					}
					for ox := hi; ox < outW; ox++ {
						dst[ox] = 0
					}
				}
				idx++
			}
		}
	}
	return outH, outW
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the column matrix back
// into an image gradient of shape [channels, h, w]. dst is accumulated into,
// not overwritten.
func Col2Im(col []float64, channels, h, w, kh, kw, stride, pad int, dst []float64) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	spatial := outH * outW
	idx := 0
	for c := 0; c < channels; c++ {
		plane := dst[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					if iy < 0 || iy >= h {
						continue
					}
					rowBase := idx*spatial + oy*outW
					dstRow := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kj
						if ix < 0 || ix >= w {
							continue
						}
						dstRow[ix] += col[rowBase+ox]
					}
				}
				idx++
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution/pooling with
// the given input size, kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
