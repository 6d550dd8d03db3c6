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
// leak between steps. Only strided and non-same convolutions build column
// matrices; same ones train on the shifted rows.
var im2colPool = sync.Pool{New: func() any { return new([]float64) }}

// padPool recycles the shifted-row lowering's training scratch the same way:
// one buffer per worker holds the padded images of x (and dy), zeroed once
// per call because only their interiors are rewritten, and a product grid,
// which every product overwrites.
var padPool = sync.Pool{New: func() any { return new([]float64) }}

// gradPool recycles Backward's worker-private dW+dB accumulator. It is
// kept apart from the scratch pools so weight-sized buffers never promote
// image buffers (or the reverse). Callers zero what they accumulate into.
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

// Forward computes y[B, aOut, outH, outW] from x[B, aIn, H, W]. A same
// convolution runs the shifted-row lowering Infer serves it on, with the
// weight prefix as a strided A (forwardShift); other shapes build one im2col
// column matrix per sample. Either way y is bit-identical to Infer's.
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

	var bias []float64
	if c.B != nil {
		bias = c.B.Value.Data
	}
	if c.sameConv() {
		c.forwardShift(x, y, bias)
		return y
	}

	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	inPlane := c.aIn * c.h * c.w
	outPlane := c.aOut * c.outH * c.outW
	spatial := c.outH * c.outW
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

// forwardShift is Forward on the shifted-row lowering: the sample groups of
// shiftConv split across the batch workers, each on its own pooled image
// and grid, with the weight prefix as a strided A and the bias as the
// epilogue's row shift.
func (c *Conv2D) forwardShift(x, y *tensor.Tensor, bias []float64) {
	batch := x.Dim(0)
	ldW, colRows := c.In*c.KH*c.KW, c.aIn*c.KH*c.KW
	s := c.shiftGeom(batch, c.h, c.w)
	nw := maxWorkers(s.groups(batch))
	imgLen := s.imgLen(c.aIn)
	scratch, bufs := padScratch(nw, imgLen, c.aOut*s.n)
	parallelFor(nw, func(worker, _ int) {
		sc := scratch[worker]
		a := shiftA{a: c.W.Value.Data, lda: ldW, k: colRows, ep: &tensor.Epilogue{RowShift: bias}}
		for b0, end := s.span(batch, nw, worker); b0 < end; b0 += s.g {
			c.shiftConv(s, a, c.aOut, x.Data, c.aIn, y.Data, b0, min(s.g, end-b0), sc[:imgLen], sc[imgLen:])
		}
	})
	for _, buf := range bufs[:nw] {
		padPool.Put(buf)
	}
}

// padScratch takes one buffer per worker from padPool: zeroed images, then
// grid elements that are left as they are.
func padScratch(nw, images, grid int) (scratch [maxBatchWorkers][]float64, bufs [maxBatchWorkers]*[]float64) {
	for i := 0; i < nw; i++ {
		bufs[i] = poolGet(&padPool, images+grid)
		scratch[i] = (*bufs[i])[:images+grid]
		clear(scratch[i][:images])
	}
	return scratch, bufs
}

// Infer computes y[B, aOut, outH, outW] on the read-only inference path: a
// same convolution on the shifted rows (inferShift), other shapes on one
// cache-hot column matrix per sample (inferIm2col). The bias is applied as
// a fused GEMM epilogue.
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

// sameConv reports whether the layer is a stride-1 "same" convolution: it
// serves (Infer), trains (Forward) and takes its data gradient on the
// shifted-row lowering (shiftConv), and its weight gradient as windowed dot
// products (tensor.GemmShiftTB); no column matrix is built for it. Strided,
// point-wise and other shapes keep im2col, GemmTA and Col2Im, which stay
// the oracle route. BenchmarkConvInferLowering found no VGG13Mini shape, at
// any rate, where im2col serves faster beyond noise (DESIGN §8), so the
// lowering has no further shape rule.
func (c *Conv2D) sameConv() bool {
	return c.Stride == 1 && c.Pad > 0 && c.KH == 2*c.Pad+1 && c.KW == c.KH
}

// shiftGridCols is how wide the shifted-row lowering lets one product's grid
// grow by stacking samples: a quarter-width 4×4 conv would otherwise run its
// kernels on 20-column panels, where the per-call overhead is the bill. It
// matches the engine's column panel; wider groups measured the same.
const shiftGridCols = 256

// shiftGeom is the padded-image geometry of the shifted-row lowering of a
// stride-1 same convolution over h×w planes. Each channel's planes are
// copied into a zero-padded image in which every kernel tap is one
// contiguous window: rows have stride ld = w+pad, so one gap of pad zeros is
// the right pad of a row and the left pad of the next. Samples are stacked
// in frames of h image rows plus pad zero rows, which are the bottom pad of
// one sample and the top pad of the next, below pad zero rows that top the
// first; a group of g samples fills a channel's plane. A product runs on
// the group's extended grid — g frames of ld-wide rows — and the h×w part of
// each frame is a sample's output plane.
type shiftGeom struct {
	h, w, pad int
	ld, frame int // row stride; one sample's rows and its pad rows
	g, plane  int // samples per group; channel stride of the image
	n         int // a full group's grid
}

func (c *Conv2D) shiftGeom(batch, h, w int) shiftGeom {
	ld := w + c.Pad
	frame := (h + c.Pad) * ld
	g := max(1, min(batch, shiftGridCols/frame))
	s := shiftGeom{h: h, w: w, pad: c.Pad, ld: ld, frame: frame, g: g, plane: c.Pad*ld + g*frame}
	s.n = s.grid(g)
	return s
}

// groups is the number of sample groups in a batch.
func (s shiftGeom) groups(batch int) int { return (batch + s.g - 1) / s.g }

// span is training's share of a batch for one of nw workers: a contiguous
// run of samples that the worker takes in groups of up to g. Splitting the
// samples, not whole groups, keeps the workers within a sample of each
// other: 32 samples on a 4×4 plane are groups of 10, 10, 10 and 2, which two
// workers would take as 20 and 12.
func (s shiftGeom) span(batch, nw, worker int) (lo, hi int) {
	chunk := (batch + nw - 1) / nw
	return min(worker*chunk, batch), min((worker+1)*chunk, batch)
}

// grid is the width of a gb-sample group's product: it ends at the last
// sample's last pixel, rounded up to whole 4-lane vectors (a column past the
// plane costs less than a scalar tail). The columns past a pixel row or a
// group's last pixel read the pad zeros.
func (s shiftGeom) grid(gb int) int { return ((gb-1)*s.frame + (s.h-1)*s.ld + s.w + 3) &^ 3 }

// origin is the offset of a sample's first pixel in its frame.
func (s shiftGeom) origin() int { return s.pad*s.ld + s.pad }

// imgLen is the length of a padded image of ch channels: it ends where the
// last channel's last tap window does, (KH−1)·ld + KW−1 = 2·origin past the
// channel's plane start plus a grid.
func (s shiftGeom) imgLen(ch int) int { return (ch-1)*s.plane + 2*s.origin() + s.n }

// padIn copies the ch planes of samples [b0, b0+gb) of src into the interior
// of img, one (sample, channel) plane per tensor.CopyRows call: at quarter
// width a row is 4–16 elements, too short to pay for a copy call of its own.
// The pad rows and gaps are never written, so a zeroed image keeps them
// zero; a short last group leaves stale frames behind its samples, which no
// output it keeps reads.
func (s shiftGeom) padIn(img, src []float64, ch, b0, gb int) {
	hw := s.h * s.w
	for sm := 0; sm < gb; sm++ {
		x := src[(b0+sm)*ch*hw:]
		for ci := 0; ci < ch; ci++ {
			tensor.CopyRows(s.h, s.w, img[ci*s.plane+sm*s.frame+s.origin():], s.ld, x[ci*hw:], s.w)
		}
	}
}

// shiftA is the weight side of a shifted-row product: a pack (served
// weights) or a strided prefix of k columns (training's weight and flipped
// kernel), and the product's epilogue.
type shiftA struct {
	pw     *tensor.PackedMat
	a      []float64
	lda, k int
	ep     *tensor.Epilogue
}

// shiftConv runs one sample group of the shifted-row lowering: it pads
// samples [b0, b0+gb) of src (inCh planes each) into img, multiplies a's m
// rows with img's tap windows into the grid ext (row stride s.n), and copies
// each sample's part of it into dst (m planes each). Every output element
// sums the same products in the same order as the im2col lowering, so the
// result is bit-identical to it. Infer, Forward and the data gradient all
// run on it.
func (c *Conv2D) shiftConv(s shiftGeom, a shiftA, m int, src []float64, inCh int, dst []float64, b0, gb int, img, ext []float64) {
	s.padIn(img, src, inCh, b0, gb)
	n := s.grid(gb)
	if a.pw != nil {
		tensor.GemmPackedShiftEx(m, n, c.KH, c.KW, a.pw, img, s.ld, s.plane, ext, s.n, a.ep)
	} else {
		tensor.GemmShiftEx(m, n, a.k, c.KH, c.KW, a.a, a.lda, img, s.ld, s.plane, ext, s.n, a.ep)
	}
	hw := s.h * s.w
	for sm := 0; sm < gb; sm++ {
		y := dst[(b0+sm)*m*hw:]
		for oc := 0; oc < m; oc++ {
			tensor.CopyRows(s.h, s.w, y[oc*hw:], s.w, ext[oc*s.n+sm*s.frame:], s.ld)
		}
	}
}

// inferShift is Infer's shifted-row lowering on a packed weight
// (tensor.GemmPackedShiftEx): the groups run one after another on one
// arena image, zeroed once per call, and one grid.
func (c *Conv2D) inferShift(arena *tensor.Arena, x, y *tensor.Tensor, pw *tensor.PackedMat, ep *tensor.Epilogue) {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	aOut := y.Dim(1)
	s := c.shiftGeom(batch, h, w)
	img := arena.Get(s.imgLen(aIn)).Data
	ext := arena.GetUninit(aOut, s.n).Data
	a := shiftA{pw: pw, ep: ep}
	for b0 := 0; b0 < batch; b0 += s.g {
		c.shiftConv(s, a, aOut, x.Data, aIn, y.Data, b0, min(s.g, batch-b0), img, ext)
	}
}

// Backward accumulates dW, dB, returns dx[B, aIn, H, W] and drops the
// cached input. Each batch worker accumulates into a private dW (and dB)
// that covers only the active aOut × colRows block, packed with row stride
// colRows, so its size and the reduction scale with r²; the reduction into
// the gradients follows the loop.
func (c *Conv2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	batch := c.x.Dim(0)
	if dy.Rank() != 4 || dy.Dim(0) != batch || dy.Dim(1) != c.aOut || dy.Dim(2) != c.outH || dy.Dim(3) != c.outW {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad %v, want [%d %d %d %d]", dy.Shape, batch, c.aOut, c.outH, c.outW))
	}
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	same := c.sameConv()
	var s shiftGeom
	units := batch
	if same {
		s = c.shiftGeom(batch, c.h, c.w)
		units = s.groups(batch)
	}
	nw := maxWorkers(units)
	var dws, dbs [maxBatchWorkers][]float64
	var gradBufs [maxBatchWorkers]*[]float64
	dwLen := c.aOut * colRows
	for i := 0; i < nw; i++ {
		gradBufs[i] = poolGet(&gradPool, dwLen+c.aOut)
		grad := (*gradBufs[i])[:dwLen+c.aOut]
		clear(grad)
		dws[i], dbs[i] = grad[:dwLen], grad[dwLen:]
	}
	var dx *tensor.Tensor
	if same {
		// The shifted product assigns every dx element.
		dx = arenaOf(ctx).GetUninit(batch, c.aIn, c.h, c.w)
		c.backwardShift(s, dy, dx, dws, dbs)
	} else {
		// Col2Im accumulates.
		dx = arenaOf(ctx).Get(batch, c.aIn, c.h, c.w)
		c.backwardIm2col(dy, dx, dws, dbs)
	}
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
		gradPool.Put(gradBufs[i])
	}
	c.x = nil
	return dx
}

// backwardShift is Backward of a same convolution on the shifted-row
// lowering, one sample group per call of the worker loop. The data gradient
// is itself a same convolution: dy through the kernel flipped in space and
// transposed in channels (wf [aIn × aOut·KH·KW], built once per call), run
// by shiftConv straight into dx. The padded dy it leaves behind, read from
// the first pixel on, is the output gradient on the extended grid (zero in
// the gaps and pad rows), and dW is its windowed dot with the re-padded
// input (tensor.GemmShiftTB): dW[oc, q] = Σ_j dy[oc, j]·x_q[j]. Nothing
// builds a column matrix or packs a transpose, and Forward cached only x.
func (c *Conv2D) backwardShift(s shiftGeom, dy, dx *tensor.Tensor, dws, dbs [maxBatchWorkers][]float64) {
	batch := dy.Dim(0)
	colRows, dcolRows := c.aIn*c.KH*c.KW, c.aOut*c.KH*c.KW
	wfBuf := poolGet(&gradPool, c.aIn*dcolRows)
	wf := (*wfBuf)[:c.aIn*dcolRows]
	c.flippedKernel(wf)
	a := shiftA{a: wf, lda: dcolRows, k: dcolRows}
	nw := maxWorkers(s.groups(batch))
	xLen, dyLen := s.imgLen(c.aIn), s.imgLen(c.aOut)
	scratch, bufs := padScratch(nw, xLen+dyLen, c.aIn*s.n)
	spatial := c.h * c.w
	parallelFor(nw, func(worker, _ int) {
		sc := scratch[worker]
		ximg, dyimg := sc[:xLen], sc[xLen:xLen+dyLen]
		for b0, end := s.span(batch, nw, worker); b0 < end; b0 += s.g {
			gb := min(s.g, end-b0)
			c.shiftConv(s, a, c.aIn, dy.Data, c.aOut, dx.Data, b0, gb, dyimg, sc[xLen+dyLen:])
			s.padIn(ximg, c.x.Data, c.aIn, b0, gb)
			tensor.GemmShiftTB(c.aOut, colRows, s.grid(gb), c.KH, c.KW, dyimg[s.origin():], s.plane, ximg, s.ld, s.plane, dws[worker], colRows)
			if c.B != nil {
				for b := b0; b < b0+gb; b++ {
					addBiasGrad(dbs[worker], dy.Data[b*c.aOut*spatial:(b+1)*c.aOut*spatial], spatial)
				}
			}
		}
	})
	for _, buf := range bufs[:nw] {
		padPool.Put(buf)
	}
	gradPool.Put(wfBuf)
}

// backwardIm2col is Backward of every other shape, one sample per call of
// the worker loop: dW += dy_b · im2col(x_b)ᵀ (GemmTB), and dcol = Wᵀ·dy_b
// (GemmTA) scattered back into dx_b (Col2Im), both on pooled column
// matrices (dcol is zeroed before its accumulating product).
func (c *Conv2D) backwardIm2col(dy, dx *tensor.Tensor, dws, dbs [maxBatchWorkers][]float64) {
	batch := dy.Dim(0)
	inPlane := c.aIn * c.h * c.w
	spatial := c.outH * c.outW
	outPlane := c.aOut * spatial
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	nw := maxWorkers(batch)
	var cols, dcols [maxBatchWorkers][]float64
	var bufs [2 * maxBatchWorkers]*[]float64
	for i := 0; i < nw; i++ {
		bufs[2*i] = poolGet(&im2colPool, colRows*spatial)
		bufs[2*i+1] = poolGet(&im2colPool, colRows*spatial)
		cols[i] = (*bufs[2*i])[:colRows*spatial]
		dcols[i] = (*bufs[2*i+1])[:colRows*spatial]
	}
	parallelFor(batch, func(worker, b int) {
		col, dcol := cols[worker], dcols[worker]
		tensor.Im2Col(c.x.Data[b*inPlane:(b+1)*inPlane], c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, col)
		g := dy.Data[b*outPlane : (b+1)*outPlane]
		tensor.GemmTB(c.aOut, colRows, spatial, g, spatial, col, spatial, dws[worker], colRows)
		clear(dcol)
		tensor.GemmTA(colRows, spatial, c.aOut, c.W.Value.Data, ldW, g, spatial, dcol, spatial)
		tensor.Col2Im(dcol, c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, dx.Data[b*inPlane:(b+1)*inPlane])
		if c.B != nil {
			addBiasGrad(dbs[worker], g, spatial)
		}
	})
	for _, buf := range bufs[:2*nw] {
		im2colPool.Put(buf)
	}
}

// addBiasGrad adds each of g's output-gradient planes (one sample, spatial
// elements per channel) summed in index order to db.
func addBiasGrad(db, g []float64, spatial int) {
	for oc := range db {
		s := 0.0
		for _, v := range g[oc*spatial : (oc+1)*spatial] {
			s += v
		}
		db[oc] += s
	}
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
