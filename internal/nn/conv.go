package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"modelslicing/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] tensors with prefix slicing
// on input and output channels (Equation 4 of the paper: channels play the
// role neurons play in dense layers). The kernel is stored as a GEMM-ready
// matrix [Out × In·KH·KW]; because the channel index is outermost in the
// im2col row ordering, the leading aIn·KH·KW columns are exactly the kernel
// entries of the first aIn input channels, so slicing is again a zero-copy
// prefix view.
type Conv2D struct {
	In, Out         int
	KH, KW          int
	Stride, Pad     int
	InSpec, OutSpec SliceSpec

	W *Param // [Out, In*KH*KW]
	B *Param // [Out], nil when built without bias

	// packs caches the per-width micro-panel packs of W as the GEMM's A
	// operand: each active (aOut, aIn·KH·KW) prefix is packed once
	// (tensor.PackA) and then served read-only to every worker. Training
	// invalidates it (see Forward).
	packs packCache

	// cached forward state
	x          *tensor.Tensor
	aIn, aOut  int
	h, w       int
	outH, outW int
}

// NewConv2D constructs a convolution with He initialization.
func NewConv2D(in, out, kh, kw, stride, pad int, inSpec, outSpec SliceSpec, bias bool, rng *rand.Rand) *Conv2D {
	inSpec.Validate("Conv2D.In", in)
	outSpec.Validate("Conv2D.Out", out)
	c := &Conv2D{
		In: in, Out: out, KH: kh, KW: kw, Stride: stride, Pad: pad,
		InSpec: inSpec, OutSpec: outSpec,
		W: NewParam("conv.W", true, out, in*kh*kw),
	}
	tensor.InitHe(c.W.Value, in*kh*kw, rng)
	if bias {
		c.B = NewParam("conv.B", false, out)
	}
	return c
}

// Conv3x3 is shorthand for the ubiquitous 3×3 stride-1 same-padding conv.
func Conv3x3(in, out int, inSpec, outSpec SliceSpec, rng *rand.Rand) *Conv2D {
	return NewConv2D(in, out, 3, 3, 1, 1, inSpec, outSpec, false, rng)
}

// Conv1x1 is shorthand for a point-wise convolution.
func Conv1x1(in, out, stride int, inSpec, outSpec SliceSpec, rng *rand.Rand) *Conv2D {
	return NewConv2D(in, out, 1, 1, stride, 0, inSpec, outSpec, false, rng)
}

// Active returns the active (input, output) channel counts at slice rate r.
func (c *Conv2D) Active(r float64) (aIn, aOut int) {
	return c.InSpec.Active(r, c.In), c.OutSpec.Active(r, c.Out)
}

// OutShape returns the output spatial size for the given input size.
func (c *Conv2D) OutShape(h, w int) (int, int) {
	return tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad), tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
}

// im2colPool recycles the worker-local im2col (and column-gradient) scratch
// of the training path across steps, the way the GEMM engine recycles its
// transpose panels: Forward/Backward used to allocate one fresh
// colRows×spatial buffer per worker per step. Buffers are size-promoted on
// demand and fully (re)written before every read — Im2Col writes padding taps
// too, and Backward zeroes its dcol explicitly — so recycled contents never
// leak between steps.
var im2colPool = sync.Pool{New: func() any { return new([]float64) }}

// gradPool recycles Backward's worker-private dW+dB accumulator. It is
// kept apart from im2colPool so weight-sized buffers never promote column
// buffers (or the reverse). Callers zero what they accumulate into.
var gradPool = sync.Pool{New: func() any { return new([]float64) }}

// poolGet hands out a buffer of at least n elements from one of the pools
// above.
func poolGet(pool *sync.Pool, n int) *[]float64 {
	buf := pool.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return buf
}

// Forward computes y[B, aOut, outH, outW] from x[B, aIn, H, W].
func (c *Conv2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	// Forward precedes weight updates; cached inference packs would go
	// stale, so drop them.
	c.packs.invalidate()
	r := ctx.EffRate()
	c.aIn, c.aOut = c.Active(r)
	if x.Rank() != 4 || x.Dim(1) != c.aIn {
		panic(fmt.Sprintf("nn: Conv2D.Forward input %v, want [B %d H W] at rate %v", x.Shape, c.aIn, r))
	}
	batch := x.Dim(0)
	c.h, c.w = x.Dim(2), x.Dim(3)
	c.outH, c.outW = c.OutShape(c.h, c.w)
	c.x = x
	// Every output element is written by the assign-mode GEMM.
	y := arenaOf(ctx).GetUninit(batch, c.aOut, c.outH, c.outW)

	inPlane := c.aIn * c.h * c.w
	outPlane := c.aOut * c.outH * c.outW
	spatial := c.outH * c.outW
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW

	var bias []float64
	if c.B != nil {
		bias = c.B.Value.Data
	}
	nw := maxWorkers(batch)
	var cols [maxBatchWorkers][]float64
	var bufs [maxBatchWorkers]*[]float64
	for i := 0; i < nw; i++ {
		bufs[i] = poolGet(&im2colPool, colRows*spatial)
		cols[i] = (*bufs[i])[:colRows*spatial]
	}
	parallelFor(batch, func(worker, b int) {
		col := cols[worker]
		src := x.Data[b*inPlane : (b+1)*inPlane]
		tensor.Im2Col(src, c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, col)
		dst := y.Data[b*outPlane : (b+1)*outPlane]
		tensor.GemmExT(tensor.TierExact, c.aOut, spatial, colRows, c.W.Value.Data, ldW, col, spatial, dst, spatial, &tensor.Epilogue{RowShift: bias})
	})
	for i := 0; i < nw; i++ {
		im2colPool.Put(bufs[i])
	}
	return y
}

// Infer computes y[B, aOut, outH, outW] on the read-only inference path,
// one sample at a time: each sample's [aIn·KH·KW × outH·outW] column matrix
// is consumed by its GEMM while still cache-hot and the product lands
// directly in that sample's output plane. The bias is applied as a fused
// GEMM epilogue.
func (c *Conv2D) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	var ep *tensor.Epilogue
	if c.B != nil {
		ep = &tensor.Epilogue{RowShift: c.B.Value.Data}
	}
	return c.inferFused(ctx, x, ep)
}

// inferFused is the per-sample lowering behind Infer with a caller-supplied
// GEMM epilogue (which must already include the conv bias when it is
// non-nil — the fusion pass folds it into the normalization shift).
func (c *Conv2D) inferFused(ctx *Context, x *tensor.Tensor, ep *tensor.Epilogue) *tensor.Tensor {
	r := ctx.EffRate()
	aIn, aOut := c.Active(r)
	if x.Rank() != 4 || x.Dim(1) != aIn {
		panic(fmt.Sprintf("nn: Conv2D.Infer input %v, want [B %d H W] at rate %v", x.Shape, aIn, r))
	}
	batch := x.Dim(0)
	h, w := x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	arena := arenaOf(ctx)
	// Every output element is written by the assign-mode GEMM, so the output
	// can skip the arena's zero fill.
	y := arena.GetUninit(batch, aOut, outH, outW)

	// The weight is the product's A operand and immutable for the life of
	// the pass: stream the per-width persistent pack (built once, shared by
	// every worker) unless the context pins the unpacked engine.
	tier := ctx.EffTier()
	var pw *tensor.PackedMat
	if usePack(ctx) {
		colRows := aIn * c.KH * c.KW
		k := packKey{aOut, colRows}
		pw = c.packs.lookup(k)
		if pw == nil {
			pw = c.packs.build(k, func() *tensor.PackedMat {
				return tensor.PackA(aOut, colRows, c.W.Value.Data, c.In*c.KH*c.KW)
			})
		}
	}
	if pw != nil && tier == tensor.TierExact && c.sameConv() {
		c.inferShift(arena, x, y, pw, ep)
	} else {
		c.inferIm2col(arena, tier, x, y, pw, ep)
	}
	return y
}

// inferIm2col is the column-matrix lowering of inferFused: each sample's
// [aIn·KH·KW × outH·outW] column matrix is built and consumed by its GEMM
// while still cache-hot, the product landing in the sample's output plane. A
// nil pw runs the unpacked engine on the weight prefix.
func (c *Conv2D) inferIm2col(arena *tensor.Arena, tier tensor.EngineTier, x, y *tensor.Tensor, pw *tensor.PackedMat, ep *tensor.Epilogue) {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	aOut := y.Dim(1)
	spatial := y.Dim(2) * y.Dim(3)
	inPlane := aIn * h * w
	outPlane := aOut * spatial
	colRows := aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	// A point-wise convolution's column matrix is the input itself
	// ([aIn × h·w], row stride h·w): hand it to the GEMM as B, no copy.
	pointwise := c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
	var col []float64
	if !pointwise {
		col = arena.GetUninit(colRows, spatial).Data
	}
	for b := 0; b < batch; b++ {
		src := x.Data[b*inPlane : (b+1)*inPlane]
		if pointwise {
			col = src
		} else {
			tensor.Im2Col(src, aIn, h, w, c.KH, c.KW, c.Stride, c.Pad, col)
		}
		dst := y.Data[b*outPlane : (b+1)*outPlane]
		if pw != nil {
			tensor.GemmPackedExT(tier, aOut, spatial, colRows, pw, col, spatial, dst, spatial, ep)
		} else {
			tensor.GemmExT(tier, aOut, spatial, colRows, c.W.Value.Data, ldW, col, spatial, dst, spatial, ep)
		}
	}
}

// sameConv reports whether the layer is a stride-1 "same" convolution: the
// served pass lowers it as shifted rows (inferShift) and Backward takes its
// data gradient as a convolution. BenchmarkConvInferLowering found no
// VGG13Mini shape, at any rate, where im2col serves faster beyond noise
// (DESIGN §8), so the lowering has no further shape rule.
func (c *Conv2D) sameConv() bool {
	return c.Stride == 1 && c.Pad > 0 && c.KH == 2*c.Pad+1 && c.KW == c.KH
}

// shiftGridCols is how wide inferShift lets one product's grid grow by
// stacking samples: a quarter-width 4×4 conv would otherwise run its kernels
// on 20-column panels, where the per-call overhead is the bill. It matches
// the engine's column panel; wider groups measured the same.
const shiftGridCols = 256

// inferShift is the implicit-GEMM lowering of a stride-1 same convolution
// (tensor.GemmPackedShiftEx). The input planes are copied into a
// zero-padded image in which every kernel tap is one contiguous window: rows
// have stride ld = w+Pad, so one gap of Pad zeros is the right pad of a row
// and the left pad of the next. Samples are stacked in frames of h image rows
// plus Pad zero rows, which are the bottom pad of one sample and the top pad
// of the next, below Pad zero rows that top the first; a group of g samples
// fills a channel's plane. The product runs on the extended grid — g frames
// of ld-wide rows — and the h×w part of each frame is copied into its
// sample's output plane. Every output element sums the same products in the
// same order as the im2col lowering, so the result is bit-identical.
func (c *Conv2D) inferShift(arena *tensor.Arena, x, y *tensor.Tensor, pw *tensor.PackedMat, ep *tensor.Epilogue) {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	aOut := y.Dim(1)
	pad := c.Pad
	ld := w + pad
	frame := (h + pad) * ld
	g := max(1, min(batch, shiftGridCols/frame))
	plane := pad*ld + g*frame
	// A group's grid ends at its last sample's last pixel, rounded up to
	// whole 4-lane vectors: a column past the plane costs less than a scalar
	// tail.
	grid := func(g int) int { return ((g-1)*frame + (h-1)*ld + w + 3) &^ 3 }
	n := grid(g)
	// Zeroed once per call: the copy below rewrites only the image interior,
	// so the pad rows and gaps stay zero. The image ends where the last
	// channel's last tap window does.
	img := arena.Get((aIn-1)*plane + (c.KH-1)*ld + c.KW - 1 + n).Data
	ext := arena.GetUninit(aOut, n).Data
	inPlane, outPlane := aIn*h*w, aOut*h*w
	for b0 := 0; b0 < batch; b0 += g {
		gb := min(g, batch-b0)
		for sm := 0; sm < gb; sm++ {
			src := x.Data[(b0+sm)*inPlane : (b0+sm+1)*inPlane]
			s := 0
			for ci := 0; ci < aIn; ci++ {
				o := ci*plane + sm*frame + pad*ld + pad
				for iy := 0; iy < h; iy++ {
					copy(img[o:o+w], src[s:s+w])
					o += ld
					s += w
				}
			}
		}
		// A short last group leaves stale frames behind its samples; no
		// output it keeps reads them, and its grid stops before them.
		tensor.GemmPackedShiftEx(aOut, grid(gb), c.KH, c.KW, pw, img, ld, plane, ext, n, ep)
		for sm := 0; sm < gb; sm++ {
			dst := y.Data[(b0+sm)*outPlane : (b0+sm+1)*outPlane]
			d := 0
			for oc := 0; oc < aOut; oc++ {
				o := oc*n + sm*frame
				for oy := 0; oy < h; oy++ {
					copy(dst[d:d+w], ext[o:o+w])
					o += ld
					d += w
				}
			}
		}
	}
}

// Backward accumulates dW, dB, returns dx[B, aIn, H, W] and drops the
// cached input.
func (c *Conv2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	batch := c.x.Dim(0)
	if dy.Rank() != 4 || dy.Dim(0) != batch || dy.Dim(1) != c.aOut || dy.Dim(2) != c.outH || dy.Dim(3) != c.outW {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad %v, want [%d %d %d %d]", dy.Shape, batch, c.aOut, c.outH, c.outW))
	}

	inPlane := c.aIn * c.h * c.w
	outPlane := c.aOut * c.outH * c.outW
	spatial := c.outH * c.outW
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW

	// A stride-1 same convolution's data gradient is itself a same
	// convolution: dy through the kernel flipped in space and transposed in
	// channels, built once per call as wf [aIn × aOut·KH·KW]. Its product
	// lands straight in the sample's dx plane, with no Col2Im scatter, no
	// per-sample Wᵀ pack inside GemmTA and no dcol clear. Other shapes keep
	// GemmTA + Col2Im, the oracle of this route.
	same := c.sameConv()
	// The same-conv product assigns every dx element; Col2Im accumulates.
	var dx *tensor.Tensor
	if same {
		dx = arenaOf(ctx).GetUninit(batch, c.aIn, c.h, c.w)
	} else {
		dx = arenaOf(ctx).Get(batch, c.aIn, c.h, c.w)
	}
	dcolRows := colRows
	var wf []float64
	var wfBuf *[]float64
	if same {
		dcolRows = c.aOut * c.KH * c.KW
		wfBuf = poolGet(&gradPool, c.aIn*dcolRows)
		wf = (*wfBuf)[:c.aIn*dcolRows]
		c.flippedKernel(wf)
	}

	nw := maxWorkers(batch)
	// Worker-local scratch, all pooled: im2col and dcol buffers (dcol is
	// zeroed in the loop before an accumulating GEMM), plus a private dW
	// (and dB) accumulator to avoid write races, reduced after the loop. The
	// dW accumulator covers only the active aOut × colRows block, packed
	// with row stride colRows, so its size and the reduction scale with r².
	var cols, dcols, dws, dbs [maxBatchWorkers][]float64
	var bufs [2 * maxBatchWorkers]*[]float64
	var gradBufs [maxBatchWorkers]*[]float64
	dwLen := c.aOut * colRows
	for i := 0; i < nw; i++ {
		bufs[2*i] = poolGet(&im2colPool, colRows*spatial)
		bufs[2*i+1] = poolGet(&im2colPool, dcolRows*spatial)
		cols[i] = (*bufs[2*i])[:colRows*spatial]
		dcols[i] = (*bufs[2*i+1])[:dcolRows*spatial]
		gradBufs[i] = poolGet(&gradPool, dwLen+c.aOut)
		grad := (*gradBufs[i])[:dwLen+c.aOut]
		clear(grad)
		dws[i], dbs[i] = grad[:dwLen], grad[dwLen:]
	}
	parallelFor(batch, func(worker, b int) {
		col := cols[worker]
		dcol := dcols[worker]
		src := c.x.Data[b*inPlane : (b+1)*inPlane]
		tensor.Im2Col(src, c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, col)
		g := dy.Data[b*outPlane : (b+1)*outPlane]
		// dW += dy_b · colᵀ
		tensor.GemmTB(c.aOut, colRows, spatial, g, spatial, col, spatial, dws[worker], colRows)
		dxb := dx.Data[b*inPlane : (b+1)*inPlane]
		if same {
			// dx_b = wf · im2col(dy_b)
			tensor.Im2Col(g, c.aOut, c.h, c.w, c.KH, c.KW, 1, c.Pad, dcol)
			tensor.GemmExT(tensor.TierExact, c.aIn, spatial, dcolRows, wf, dcolRows, dcol, spatial, dxb, spatial, nil)
		} else {
			// dcol = Wᵀ · dy_b, scattered back into dx_b
			clear(dcol)
			tensor.GemmTA(colRows, spatial, c.aOut, c.W.Value.Data, ldW, g, spatial, dcol, spatial)
			tensor.Col2Im(dcol, c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, dxb)
		}
		if c.B != nil {
			db := dbs[worker]
			for oc := 0; oc < c.aOut; oc++ {
				plane := g[oc*spatial : (oc+1)*spatial]
				s := 0.0
				for _, v := range plane {
					s += v
				}
				db[oc] += s
			}
		}
	})
	for i := 0; i < nw; i++ {
		for oc := 0; oc < c.aOut; oc++ {
			gw := c.W.Grad.Data[oc*ldW : oc*ldW+colRows]
			for j, v := range dws[i][oc*colRows : (oc+1)*colRows] {
				if v != 0 {
					gw[j] += v
				}
			}
		}
		if c.B != nil {
			gb := c.B.Grad.Data
			for j, v := range dbs[i] {
				gb[j] += v
			}
		}
	}
	for i := 0; i < nw; i++ {
		im2colPool.Put(bufs[2*i])
		im2colPool.Put(bufs[2*i+1])
		gradPool.Put(gradBufs[i])
	}
	if same {
		gradPool.Put(wfBuf)
	}
	c.x = nil
	return dx
}

// flippedKernel writes the active kernel flipped in space and transposed in
// channels into wf [aIn × aOut·KH·KW]: wf[ci, (oc·KH+ki)·KW+kj] =
// W[oc, (ci·KH+KH−1−ki)·KW+KW−1−kj]. Reversing a channel's KH·KW taps flips
// both axes at once.
func (c *Conv2D) flippedKernel(wf []float64) {
	taps := c.KH * c.KW
	ldW := c.In * taps
	ldF := c.aOut * taps
	for oc := 0; oc < c.aOut; oc++ {
		for ci := 0; ci < c.aIn; ci++ {
			src := c.W.Value.Data[oc*ldW+ci*taps:][:taps]
			dst := wf[ci*ldF+oc*taps:][:taps]
			for t, v := range src {
				dst[taps-1-t] = v
			}
		}
	}
}

// packCacheBytes reports the resident per-width pack memory (see
// PackCacheBytes).
func (c *Conv2D) packCacheBytes() int64 { return c.packs.bytes() }

// Params returns the learnable parameters.
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}
