package nn

import (
	"fmt"
	"math"

	"modelslicing/internal/tensor"
)

// MaxPool2D is max pooling over [B, C, H, W] tensors.
type MaxPool2D struct {
	K, Stride int

	argmax     []int
	inShape    []int
	outH, outW int
}

// NewMaxPool2D constructs a k×k max-pool with the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward computes the pooled output and caches argmax positions.
func (m *MaxPool2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m.inShape = append(m.inShape[:0], x.Shape...)
	m.outH = tensor.ConvOutSize(h, m.K, m.Stride, 0)
	m.outW = tensor.ConvOutSize(w, m.K, m.Stride, 0)
	y := arenaOf(ctx).GetUninit(b, c, m.outH, m.outW)
	if cap(m.argmax) < y.Size() {
		m.argmax = make([]int, y.Size())
	}
	m.argmax = m.argmax[:y.Size()]
	m.pool(y.Data, denseLayout(c, m.outH, m.outW), m.argmax, x.Data, b*c, h, w)
	return y
}

// Infer computes the pooled output without caching argmax positions.
func (m *MaxPool2D) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v, want rank 4", x.Shape))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, m.K, m.Stride, 0)
	outW := tensor.ConvOutSize(w, m.K, m.Stride, 0)
	y := arenaOf(ctx).GetUninit(b, c, outH, outW)
	m.pool(y.Data, denseLayout(c, outH, outW), nil, x.Data, b*c, h, w)
	return y
}

// stage is the pool as the opening stage of a shifted-row run: it writes
// each sample group straight into the first conv's padded image.
func (m *MaxPool2D) stage(*Context) shiftStage { return shiftStage{pool: m} }

// pool max-pools planes [h, w] images of src into the planes of dst (layout
// out, in [B, C] plane order) and, when argmax is non-nil, records each
// maximum's flat index into src at the output's dense position (training,
// whose out is dense). A maximum is the first tap, in row-major window
// order, that is greater than all before it; NaN is never greater, and an
// all-NaN window yields −Inf at its first position. There is no padding and
// the output size rounds down, so a window overhangs its plane only when the
// plane is smaller than the window; the general loop clips it then.
func (m *MaxPool2D) pool(dst []float64, out layout, argmax []int, src []float64, planes, h, w int) {
	outH := tensor.ConvOutSize(h, m.K, m.Stride, 0)
	outW := tensor.ConvOutSize(w, m.K, m.Stride, 0)
	if m.K == 2 && m.Stride == 2 && h >= 2 && w >= 2 {
		pool2x2(dst, out, argmax, src, planes, h, w, outH, outW, tensor.HasAVX())
		return
	}
	m.poolWindows(dst, out, argmax, src, planes, h, w, outH, outW)
}

// poolWindows is pool for any window and stride, one clipped window per
// output. It is also the oracle pool2x2 is tested against.
func (m *MaxPool2D) poolWindows(dst []float64, out layout, argmax []int, src []float64, planes, h, w, outH, outW int) {
	for p := 0; p < planes; p++ {
		dp := dst[out.at(p/out.ch, p%out.ch):]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				iy, ix := oy*m.Stride, ox*m.Stride
				first := p*h*w + iy*w + ix
				best, bestIdx := math.Inf(-1), first
				kh, kw := min(m.K, h-iy), min(m.K, w-ix)
				for ky := 0; ky < kh; ky++ {
					row := src[first+ky*w : first+ky*w+kw]
					for kx, v := range row {
						if v > best {
							best, bestIdx = v, first+ky*w+kx
						}
					}
				}
				dp[oy*out.ld+ox] = best
				if argmax != nil {
					argmax[(p*outH+oy)*outW+ox] = bestIdx
				}
			}
		}
	}
}

// pool2x2 is pool for the 2×2 stride-2 window every model here uses, on
// planes of at least 2×2: two input rows walked side by side, four compares
// per output and no clipping, same tap order as the general loop and so the
// same results. The loop without argmax is a copy on purpose: carrying the
// index through the compares costs the inference path 10–80 %
// (BenchmarkMaxPoolInfer). With vec set it hands each row's outputs, four at
// a time, to the VMAXPD kernel (tensor.MaxPool2x2Row), which keeps the same
// rule bit for bit, and finishes the outW mod 4 remainder itself; with vec
// unset it runs the Go loop alone, as a host without AVX does.
func pool2x2(dst []float64, lo layout, argmax []int, src []float64, planes, h, w, outH, outW int, vec bool) {
	// A row of fewer than four outputs has no vector body; skip the call.
	vec = vec && outW >= 4
	for p, b, c := 0, 0, 0; p < planes; p++ {
		dp := dst[lo.at(b, 0)+c*lo.cs:]
		if c++; c == lo.ch {
			b, c = b+1, 0
		}
		for oy := 0; oy < outH; oy++ {
			base := p*h*w + 2*oy*w
			r0 := src[base : base+2*outW]
			r1 := src[base+w : base+w+2*outW]
			out := dp[oy*lo.ld : oy*lo.ld+outW]
			if argmax == nil {
				if vec {
					n := tensor.MaxPool2x2Row(out, r0, r1)
					out, r0, r1 = out[n:], r0[2*n:], r1[2*n:]
				}
				for ox := range out {
					best := math.Inf(-1)
					if v := r0[2*ox]; v > best {
						best = v
					}
					if v := r0[2*ox+1]; v > best {
						best = v
					}
					if v := r1[2*ox]; v > best {
						best = v
					}
					if v := r1[2*ox+1]; v > best {
						best = v
					}
					out[ox] = best
				}
				continue
			}
			am := argmax[(p*outH+oy)*outW : (p*outH+oy+1)*outW]
			for ox := range out {
				best, bestIdx := math.Inf(-1), base+2*ox
				if v := r0[2*ox]; v > best {
					best = v
				}
				if v := r0[2*ox+1]; v > best {
					best, bestIdx = v, base+2*ox+1
				}
				if v := r1[2*ox]; v > best {
					best, bestIdx = v, base+w+2*ox
				}
				if v := r1[2*ox+1]; v > best {
					best, bestIdx = v, base+w+2*ox+1
				}
				out[ox] = best
				am[ox] = bestIdx
			}
		}
	}
}

// Backward routes each gradient to its argmax position.
func (m *MaxPool2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	dx := arenaOf(ctx).Get(m.inShape...)
	for i, v := range dy.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [B, C, H, W] to [B, C] by spatial averaging.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each channel plane.
func (g *GlobalAvgPool) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool input %v, want rank 4", x.Shape))
	}
	g.inShape = append(g.inShape[:0], x.Shape...)
	y := arenaOf(ctx).GetUninit(x.Dim(0), x.Dim(1))
	planeMeans(y.Data, x.Data, x.Dim(2)*x.Dim(3))
	return y
}

// Infer averages each channel plane without caching the input shape.
func (g *GlobalAvgPool) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool input %v, want rank 4", x.Shape))
	}
	y := arenaOf(ctx).GetUninit(x.Dim(0), x.Dim(1))
	planeMeans(y.Data, x.Data, x.Dim(2)*x.Dim(3))
	return y
}

// planeMeans writes the mean of each consecutive hw-element plane of src.
func planeMeans(dst, src []float64, hw int) {
	for i := range dst {
		dst[i] = tensor.Sum(src[i*hw:(i+1)*hw]) / float64(hw)
	}
}

// Backward distributes each gradient uniformly over the pooled plane.
func (g *GlobalAvgPool) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	dx := arenaOf(ctx).GetUninit(g.inShape...)
	hw := h * w
	inv := 1 / float64(hw)
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			v := dy.Data[s*c+ch] * inv
			seg := dx.Data[(s*c+ch)*hw : (s*c+ch+1)*hw]
			for i := range seg {
				seg[i] = v
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [B, ...] to [B, features].
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions into one.
func (f *Flatten) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	return arenaOf(ctx).Wrap(x.Data, x.Dim(0), x.Size()/x.Dim(0))
}

// Infer flattens via an arena-recycled header view (no data copy, no cached
// shape).
func (f *Flatten) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return arenaOf(ctx).Wrap(x.Data, x.Dim(0), x.Size()/x.Dim(0))
}

// Backward restores the original shape.
func (f *Flatten) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return arenaOf(ctx).Wrap(dy.Data, f.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
