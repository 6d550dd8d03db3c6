package tensor

// Im2Col unrolls one image of shape [channels, h, w] (row-major in src) into
// a column matrix col of shape [(channels*kh*kw) × (outH*outW)], so that a
// convolution becomes a single GEMM with the kernel matrix
// [outChannels × (channels*kh*kw)].
//
// Slicing-aware layers pass only the active prefix of channels; src must hold
// at least channels*h*w values and col at least channels*kh*kw*outH*outW.
func Im2Col(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64) (outH, outW int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	im2colInto(src, channels, h, w, kh, kw, stride, pad, col, outH*outW, 0)
	return outH, outW
}

// im2colInto unrolls one image into columns [colOff, colOff+outH·outW) of a
// column matrix whose row stride is ldcol. Im2Col is the ldcol = outH·outW,
// colOff = 0 case and the only caller outside the tests, which use a band of
// a wider matrix to check that nothing outside it is written. Every element
// of the band is written (padding taps included), so the destination may be
// uninitialized.
func im2colInto(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64, ldcol, colOff int) {
	if stride == 1 && kw == 2*pad+1 && h+2*pad >= kh {
		im2colShift(src, channels, h, w, kh, kw, pad, col, ldcol, colOff)
		return
	}
	im2colRows(src, channels, h, w, kh, kw, stride, pad, col, ldcol, colOff)
}

// im2colShift is im2colInto for stride 1 with the output as wide as the input
// (kw = 2·pad+1, every "same" convolution). Source and destination rows then
// share one stride, so a kernel tap (ki, kj) is the whole plane shifted by
// (ki−pad)·w + (kj−pad): one bulk copy per (channel, tap) instead of one per
// output row. The copy drags each row's out-of-range columns in from the
// neighbouring row; those few elements, and the rows above and below the
// image, are zeroed afterwards. Results equal im2colRows exactly.
func im2colShift(src []float64, channels, h, w, kh, kw, pad int, col []float64, ldcol, colOff int) {
	outH := h + 2*pad - kh + 1
	band := outH * w
	idx := 0
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			// oy ∈ [oyLo, oyHi) reads a row inside the image.
			oyLo := min(max(pad-ki, 0), outH)
			oyHi := max(min(h+pad-ki, outH), oyLo)
			for kj := 0; kj < kw; kj++ {
				dst := col[idx*ldcol+colOff : idx*ldcol+colOff+band]
				idx++
				// ox ∈ [lo, hi) reads a column inside the row.
				lo := min(max(pad-kj, 0), w)
				hi := max(min(w+pad-kj, w), lo)
				if oyLo == oyHi || lo == hi {
					clear(dst)
					continue
				}
				shift := (ki-pad)*w + kj - pad
				first, last := oyLo*w+lo, (oyHi-1)*w+hi
				clear(dst[:first])
				copy(dst[first:last], plane[first+shift:last+shift])
				clear(dst[last:])
				// The gap is a column or two: plain stores beat a clear call.
				gap := w - hi + lo
				for p := oyLo*w + hi; p < last; p += w {
					for q := p; q < p+gap; q++ {
						dst[q] = 0
					}
				}
			}
		}
	}
}

// im2colRows is the general im2colInto — any stride, any output width — one
// copy or gather per output row. It is also the oracle im2colShift is tested
// against.
func im2colRows(src []float64, channels, h, w, kh, kw, stride, pad int, col []float64, ldcol, colOff int) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
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
					rowBase := idx*ldcol + colOff + oy*outW
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
