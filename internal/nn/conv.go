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
	y := tensor.New(batch, c.aOut, c.outH, c.outW)

	inPlane := c.aIn * c.h * c.w
	outPlane := c.aOut * c.outH * c.outW
	spatial := c.outH * c.outW
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW

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
		tensor.Gemm(c.aOut, spatial, colRows, c.W.Value.Data, ldW, col, spatial, dst, spatial)
		if c.B != nil {
			for oc := 0; oc < c.aOut; oc++ {
				bias := c.B.Value.Data[oc]
				plane := dst[oc*spatial : (oc+1)*spatial]
				for i := range plane {
					plane[i] += bias
				}
			}
		}
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

	inPlane := aIn * h * w
	outPlane := aOut * outH * outW
	spatial := outH * outW
	colRows := aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW

	// The weight is the product's A operand and immutable for the life of
	// the pass: stream the per-width persistent pack (built once, shared by
	// every worker) unless the context pins the unpacked engine.
	tier := ctx.EffTier()
	var pw *tensor.PackedMat
	if usePack(ctx) {
		k := packKey{aOut, colRows}
		pw = c.packs.lookup(k)
		if pw == nil {
			pw = c.packs.build(k, func() *tensor.PackedMat {
				return tensor.PackA(aOut, colRows, c.W.Value.Data, ldW)
			})
		}
	}
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
	return y
}

// Backward accumulates dW, dB and returns dx[B, aIn, H, W].
func (c *Conv2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	batch := c.x.Dim(0)
	if dy.Rank() != 4 || dy.Dim(0) != batch || dy.Dim(1) != c.aOut || dy.Dim(2) != c.outH || dy.Dim(3) != c.outW {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad %v, want [%d %d %d %d]", dy.Shape, batch, c.aOut, c.outH, c.outW))
	}
	dx := tensor.New(batch, c.aIn, c.h, c.w)

	inPlane := c.aIn * c.h * c.w
	outPlane := c.aOut * c.outH * c.outW
	spatial := c.outH * c.outW
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW

	nw := maxWorkers(batch)
	// Worker-local scratch, all pooled: im2col and dcol buffers (dcol is
	// zeroed in the loop before its accumulating GEMM), plus a private dW
	// (and dB) accumulator to avoid write races, reduced after the loop. The
	// dW accumulator covers only the active aOut × colRows block, packed
	// with row stride colRows, so its size and the reduction scale with r².
	var cols, dcols, dws, dbs [maxBatchWorkers][]float64
	var bufs [2 * maxBatchWorkers]*[]float64
	var gradBufs [maxBatchWorkers]*[]float64
	dwLen := c.aOut * colRows
	for i := 0; i < nw; i++ {
		bufs[2*i] = poolGet(&im2colPool, colRows*spatial)
		bufs[2*i+1] = poolGet(&im2colPool, colRows*spatial)
		cols[i] = (*bufs[2*i])[:colRows*spatial]
		dcols[i] = (*bufs[2*i+1])[:colRows*spatial]
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
		// dcol = Wᵀ · dy_b
		for i := range dcol {
			dcol[i] = 0
		}
		tensor.GemmTA(colRows, spatial, c.aOut, c.W.Value.Data, ldW, g, spatial, dcol, spatial)
		tensor.Col2Im(dcol, c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, dx.Data[b*inPlane:(b+1)*inPlane])
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
	return dx
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
