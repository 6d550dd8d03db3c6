package nn

import (
	"fmt"
	"math/rand"

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

	// cached forward state
	x          *tensor.Tensor
	aIn, aOut  int
	h, w       int
	outH, outW int

	// region is the parallelFor region running on the layer (run).
	region convRegion
}

// convRegion is the per-call state of a Conv2D's parallelFor region. The
// layer itself is the region's part (runPart), so handing it to the helpers
// allocates nothing, and its parts read their arguments here. run sets it
// just before the region and clears it when the region ends, so neither a
// parked helper nor the trained model keeps a step's tensors or scratch
// reachable; a copy of the layer runs its regions on its own copy.
type convRegion struct {
	body func(c *Conv2D, i int) // the region's part: a *Part method
	nw   int                    // parts
	s    shiftGeom              // a same conv's geometry
	// Forward's output y and, with gn, the ReLU output out; Backward's
	// output gradient dy and input gradient dx.
	y, out, dy, dx *tensor.Tensor
	gn             *GroupNorm
	bias           []float64
	wf             []float64 // Backward's flipped kernel (flippedKernel)
	part           []float64 // gn's dγ and dβ partials, per sample
	// Each part's scratch (scratch; dcols is im2col's column gradient),
	// and its dW and dB accumulators.
	scratch, dcols, dws, dbs [maxBatchWorkers][]float64
}

// run runs the region rg on parallelFor, the layer as its part, and clears
// it when the region ends.
func (c *Conv2D) run(rg convRegion) {
	c.region = rg
	defer func() { c.region = convRegion{} }()
	parallelFor(rg.nw, c)
}

// runPart runs part i of the region in c.region.
func (c *Conv2D) runPart(i int) { c.region.body(c, i) }

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

// scratch takes nw parts' n-element training scratch from arena (nil: the
// heap), the first zeroed elements of each zeroed: im2col column matrices,
// which Im2Col rewrites whole, padded images, whose pads only a clear
// writes, product grids, and gradient accumulators. A region's caller marks
// the arena before it takes the scratch and releases it to the mark once the
// region has ended, so a pass holds one region's scratch at a time and a
// step recycles it with its arena. Unlike a sync.Pool, which misses when
// the caller has moved to another P since its last Put, the arena hands the
// same slab back every step.
func scratch(arena *tensor.Arena, nw, n, zeroed int) (bufs [maxBatchWorkers][]float64) {
	if n == 0 {
		return bufs
	}
	for i := 0; i < nw; i++ {
		bufs[i] = arena.GetUninit(n).Data
		clear(bufs[i][:zeroed])
	}
	return bufs
}

// Forward computes y[B, aOut, outH, outW] from x[B, aIn, H, W] on the
// lowering Infer serves the shape on: a same convolution on the shifted rows,
// with the weight prefix as a strided A (forwardShift); a point-wise one on
// its input plane as the column matrix; other shapes on one im2col column
// matrix per sample. Either way y is bit-identical to Infer's.
func (c *Conv2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return c.forward(ctx, x, nil)
}

// forward is Forward. A non-nil gn is the GroupNorm of a same
// Conv→GroupNorm→ReLU trained as one operator (FusedConvAct): the conv
// output becomes gn's cached input, and the returned tensor is the ReLU's
// output, normalized out of each sample group's product grid in the same
// worker loop (forwardShift).
func (c *Conv2D) forward(ctx *Context, x *tensor.Tensor, gn *GroupNorm) *tensor.Tensor {
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
	arena := arenaOf(ctx)
	y := arena.GetUninit(batch, c.aOut, c.outH, c.outW)

	var bias []float64
	if c.B != nil {
		bias = c.B.Value.Data
	}
	if c.sameConv() {
		out := y
		if gn != nil {
			out = gn.startForward(ctx, y)
		}
		c.forwardShift(arena, y, bias, gn, out)
		return out
	}

	mark := arena.Mark()
	rg := convRegion{body: (*Conv2D).forwardIm2colPart, nw: maxWorkers(batch), y: y, bias: bias}
	rg.scratch = scratch(arena, rg.nw, c.colLen(c.aIn*c.KH*c.KW, c.outH*c.outW), 0)
	c.run(rg)
	arena.Release(mark)
	return y
}

// forwardIm2colPart is part i of Forward on the im2col lowering: a sample
// at a time of its span, each on the part's column matrix.
func (c *Conv2D) forwardIm2colPart(i int) {
	rg := &c.region
	batch := c.x.Dim(0)
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	inPlane := c.aIn * c.h * c.w
	spatial := c.outH * c.outW
	outPlane := c.aOut * spatial
	for b, end := span(batch, rg.nw, i); b < end; b++ {
		col := c.columns(c.x.Data[b*inPlane:(b+1)*inPlane], c.aIn, c.h, c.w, rg.scratch[i])
		dst := rg.y.Data[b*outPlane : (b+1)*outPlane]
		tensor.GemmEx(c.aOut, spatial, colRows, c.W.Value.Data, ldW, col, spatial, dst, spatial, &tensor.Epilogue{RowShift: rg.bias})
	}
}

// forwardShift is Forward on the shifted-row lowering: the sample groups of
// shiftConv split across the batch workers, each on its own image and grid,
// with the weight prefix as a strided A and the bias as the epilogue's row
// shift. Each group's grid is copied out into y and, with a
// non-nil gn, normalized with the ReLU into out while it is cache-hot, gn
// recording the statistics (normGrid).
func (c *Conv2D) forwardShift(arena *tensor.Arena, y *tensor.Tensor, bias []float64, gn *GroupNorm, out *tensor.Tensor) {
	batch := c.x.Dim(0)
	s := c.shiftGeom(tensor.TierExact, batch, c.h, c.w)
	mark := arena.Mark()
	rg := convRegion{body: (*Conv2D).forwardShiftPart, nw: maxWorkers(s.groups(batch)), s: s, y: y, out: out, gn: gn, bias: bias}
	imgLen := s.imgLen(c.aIn)
	rg.scratch = scratch(arena, rg.nw, imgLen+c.aOut*s.n, imgLen)
	c.run(rg)
	arena.Release(mark)
}

// forwardShiftPart is part i of forwardShift: its span a sample group at a
// time, on the part's image and grid.
func (c *Conv2D) forwardShiftPart(i int) {
	rg := &c.region
	s, gn := rg.s, rg.gn
	imgLen := s.imgLen(c.aIn)
	img, ext := rg.scratch[i][:imgLen], rg.scratch[i][imgLen:]
	a := c.weightA(c.aIn, &tensor.Epilogue{RowShift: rg.bias})
	dense := denseLayout(c.aOut, c.h, c.w)
	for b0, end := span(c.x.Dim(0), rg.nw, i); b0 < end; b0 += s.g {
		gb := min(s.g, end-b0)
		s.padIn(img, c.x.Data, c.aIn, b0, gb)
		c.shiftConv(s, a, c.aOut, gb, img, ext)
		s.copyOut(rg.y.Data, dense, ext, c.aOut, b0, gb)
		if gn != nil {
			s.normGrid(gn, rg.out.Data, dense, gn.stats, ext, c.aOut, b0, gb)
		}
	}
}

// Infer computes y[B, aOut, outH, outW] on the read-only inference path: a
// same convolution on the shifted rows (inferShift), other shapes on one
// cache-hot column matrix per sample (inferIm2col), on either tier. Both
// read the weight prefix in place from the parent buffer. The bias is
// applied as a fused GEMM epilogue.
func (c *Conv2D) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return c.stage(ctx).infer(ctx, x)
}

// stage is the conv as a stage of a shifted-row run: the bias as the
// epilogue's row shift.
func (c *Conv2D) stage(*Context) shiftStage {
	st := shiftStage{conv: c}
	if c.B != nil {
		st.ep.RowShift = c.B.Value.Data
	}
	return st
}

// infer serves the conv stage st alone, dense in and out, with its GEMM
// epilogue (which already includes the conv bias — the fusion pass folds it
// into the normalization shift). A non-nil st.gn is a GroupNorm over the
// output followed by a ReLU (FusedConvAct): the shifted-row lowering, a run
// of one stage, runs it on each sample group's product grid in place of the
// copy-out, so the conv output never exists; after the im2col lowering it
// normalizes the output in place.
func (st shiftStage) infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	c := st.conv
	if c.sameConv() {
		run := [1]shiftStage{st}
		return inferShift(ctx, x, run[:])
	}
	r := ctx.EffRate()
	aIn, aOut := c.Active(r)
	if x.Rank() != 4 || x.Dim(1) != aIn {
		panic(fmt.Sprintf("nn: Conv2D.Infer input %v, want [B %d H W] at rate %v", x.Shape, aIn, r))
	}
	batch := x.Dim(0)
	outH, outW := c.OutShape(x.Dim(2), x.Dim(3))
	// Every output element is written by the assign-mode GEMM.
	y := arenaOf(ctx).GetUninit(batch, aOut, outH, outW)
	c.inferIm2col(arenaOf(ctx), ctx.EffTier(), x, y, &st.ep)
	if gn := st.gn; gn != nil {
		hw := outH * outW
		gn.normalize(y.Data, denseLayout(aOut, 1, hw), nil, y.Data, batch, gn.activeGroups(aOut), gn.packedGroup(hw), aOut*hw, true)
	}
	return y
}

// inferIm2col is the column-matrix lowering of shiftStage.infer: each sample's
// [aIn·KH·KW × outH·outW] column matrix is built and consumed by its GEMM
// while still cache-hot, the product landing in the sample's output plane.
func (c *Conv2D) inferIm2col(arena *tensor.Arena, tier tensor.EngineTier, x, y *tensor.Tensor, ep *tensor.Epilogue) {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	aOut := y.Dim(1)
	spatial := y.Dim(2) * y.Dim(3)
	inPlane := aIn * h * w
	outPlane := aOut * spatial
	colRows := aIn * c.KH * c.KW
	var scratch []float64
	if n := c.colLen(colRows, spatial); n > 0 {
		scratch = arena.GetUninit(n).Data
	}
	for b := 0; b < batch; b++ {
		col := c.columns(x.Data[b*inPlane:(b+1)*inPlane], aIn, h, w, scratch)
		dst := y.Data[b*outPlane : (b+1)*outPlane]
		tensor.GemmExT(tier, aOut, spatial, colRows, c.W.Value.Data, c.In*c.KH*c.KW, col, spatial, dst, spatial, ep)
	}
}

// pointwise reports whether the layer is a 1×1, stride-1, unpadded
// convolution, whose column matrix is its input plane itself ([aIn × h·w],
// row stride h·w).
func (c *Conv2D) pointwise() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// colLen is the column-matrix scratch one sample of the im2col lowering
// needs: none for a point-wise convolution.
func (c *Conv2D) colLen(colRows, spatial int) int {
	if c.pointwise() {
		return 0
	}
	return colRows * spatial
}

// columns returns one sample's column matrix: the input plane src of a
// point-wise convolution, read in place, or else col, which Im2Col fills.
func (c *Conv2D) columns(src []float64, aIn, h, w int, col []float64) []float64 {
	if c.pointwise() {
		return src
	}
	tensor.Im2Col(src, aIn, h, w, c.KH, c.KW, c.Stride, c.Pad, col)
	return col
}

// sameConv reports whether the layer is a stride-1 "same" convolution: it
// serves (Infer, on either tier), trains (Forward) and takes its data
// gradient on the shifted-row lowering (shiftConv), and its weight gradient
// as windowed dot products (tensor.GemmShiftTB); no column matrix is built
// for it. Strided and other shapes keep im2col, GemmTA and Col2Im, which
// stay the oracle route; a point-wise conv reads its input as the column
// matrix. BenchmarkConvInferLowering found no VGG13Mini shape, at any rate,
// where im2col serves faster beyond noise (DESIGN §8), so the lowering has
// no further shape rule.
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
	tier      tensor.EngineTier // the products' engine tier
	h, w, pad int
	ld, frame int // row stride; one sample's rows and its pad rows
	g, plane  int // samples per group; channel stride of the image
	n         int // a full group's grid
}

func (c *Conv2D) shiftGeom(tier tensor.EngineTier, batch, h, w int) shiftGeom {
	ld := w + c.Pad
	frame := (h + c.Pad) * ld
	g := max(1, min(batch, shiftGridCols/frame))
	s := shiftGeom{tier: tier, h: h, w: w, pad: c.Pad, ld: ld, frame: frame, g: g, plane: c.Pad*ld + g*frame}
	s.n = s.grid(g)
	return s
}

// groups is the number of sample groups in a batch.
func (s shiftGeom) groups(batch int) int { return (batch + s.g - 1) / s.g }

// span is training's share i of a batch cut into nw parts, one per unit of
// a parallelFor region: a contiguous run of samples, which the shifted-row
// lowering takes in groups of up to g. Splitting the samples, not whole
// groups, keeps the parts within a sample of each other: 32 samples on a
// 4×4 plane are groups of 10, 10, 10 and 2, which two parts would take as
// 20 and 12.
func span(batch, nw, i int) (lo, hi int) {
	chunk := (batch + nw - 1) / nw
	return min(i*chunk, batch), min((i+1)*chunk, batch)
}

// grid is the width of a gb-sample group's product: it ends at the last
// sample's last pixel, rounded up to the tier's column block (a column past
// the plane costs less than a column tail). The columns past a pixel row or
// a group's last pixel read the pad zeros.
func (s shiftGeom) grid(gb int) int {
	cb := s.tier.ColBlock()
	return ((gb-1)*s.frame + (s.h-1)*s.ld + s.w + cb - 1) / cb * cb
}

// origin is the offset of a sample's first pixel in its frame.
func (s shiftGeom) origin() int { return s.pad*s.ld + s.pad }

// imgLen is the length of a padded image of ch channels: it ends where the
// last channel's last tap window does, (KH−1)·ld + KW−1 = 2·origin past the
// channel's plane start plus a grid.
func (s shiftGeom) imgLen(ch int) int { return (ch-1)*s.plane + 2*s.origin() + s.n }

// image is the layout of a padded image of ch channels holding one sample
// group: sample b of the group has channel c at c·plane + b·frame, its
// first pixel at origin.
func (s shiftGeom) image(ch int) layout {
	return layout{ch: ch, ss: s.frame, cs: s.plane, off: s.origin(), ld: s.ld}
}

// layout addresses the (sample, channel) planes of a [B, C, H, W]
// activation in a buffer: row y of sample b's channel c starts at
// at(b, c) + y·ld. Packed planes are denseLayout; a same conv's padded
// image of one sample group is shiftGeom.image.
type layout struct {
	ch      int // channels per sample
	ss, cs  int // sample and channel strides
	off, ld int // first pixel of a plane, row stride
}

// denseLayout is packed [B, c, h, w] planes.
func denseLayout(c, h, w int) layout { return layout{ch: c, ss: c * h * w, cs: h * w, ld: w} }

// at is the offset of the first pixel of sample b's channel c.
func (l layout) at(b, c int) int { return b*l.ss + c*l.cs + l.off }

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

// shiftA is the weight side of a shifted-row product: a strided prefix of k
// columns (the weight, served or trained, or training's flipped kernel), and
// the product's epilogue.
type shiftA struct {
	a      []float64
	lda, k int
	ep     *tensor.Epilogue
}

// weightA is the weight prefix of aIn input channels as a shifted-row
// product's A, read in place from the parent buffer.
func (c *Conv2D) weightA(aIn int, ep *tensor.Epilogue) shiftA {
	taps := c.KH * c.KW
	return shiftA{a: c.W.Value.Data, lda: c.In * taps, k: aIn * taps, ep: ep}
}

// shiftConv runs one gb-sample group's product of the shifted-row lowering:
// a's m rows times the tap windows of img, which holds the group as padIn
// (or the fused backward) laid it out, into the grid ext (row stride s.n).
// Every output element sums the same products in the same order as the
// im2col lowering, so the result is bit-identical to it. Infer, Forward and
// the data gradient all run on it; the caller then copies each sample's part
// of the grid out (copyOut) or normalizes it straight out of the grid
// (normGrid).
func (c *Conv2D) shiftConv(s shiftGeom, a shiftA, m, gb int, img, ext []float64) {
	tensor.GemmShiftEx(s.tier, m, s.grid(gb), a.k, c.KH, c.KW, a.a, a.lda, img, s.ld, s.plane, ext, s.n, a.ep)
}

// copyOut writes the part of the grid ext (m channels) that belongs to each
// of samples [b0, b0+gb) into its m planes of dst (layout out).
func (s shiftGeom) copyOut(dst []float64, out layout, ext []float64, m, b0, gb int) {
	for sm := 0; sm < gb; sm++ {
		y := dst[out.at(b0+sm, 0):]
		for oc := 0; oc < m; oc++ {
			tensor.CopyRows(s.h, s.w, y[oc*out.cs:], out.ld, ext[oc*s.n+sm*s.frame:], s.ld)
		}
	}
}

// normGrid runs gn and the trailing ReLU over samples [b0, b0+gb) of the
// grid ext (m channels) into their planes of dst, straight out of the grid
// while it is cache-hot: GroupNorm.normalize reads each channel's window at
// row stride s.ld and channel stride s.n, in the order it reads copied-out
// planes, so dst is bit-identical to the unfused chain's. dst is packed
// planes (out dense) or the next conv's padded image of the same geometry
// (out = s.image(m)), whose rows are the grid's. A non-nil stats (training)
// receives the groups' statistics at the batch's offsets.
func (s shiftGeom) normGrid(gn *GroupNorm, dst []float64, out layout, stats, ext []float64, m, b0, gb int) {
	ag := gn.activeGroups(m)
	if stats != nil {
		stats = stats[2*b0*ag:]
	}
	group := tensor.Grid{Ch: gn.C / gn.NormGroups, Rows: s.h, Cols: s.w, LD: s.ld, CS: s.n}
	gn.normalize(dst[b0*out.ss:], out, stats, ext, gb, ag, group, s.frame, true)
}

// shiftStage is one layer of a run that inferShift serves sample group by
// sample group: a same convolution with its epilogue and, for a
// Conv→GroupNorm→ReLU, its GroupNorm; or the max-pool that opens a run.
// inferShift fills in the pass's widths and input image.
type shiftStage struct {
	conv *Conv2D
	ep   tensor.Epilogue
	gn   *GroupNorm
	pool *MaxPool2D

	aIn, aOut int
	img       []float64
}

// stager is a layer that can be a stage of a shifted-row run (Conv2D,
// FusedConvAct, MaxPool2D; see shiftedRuns).
type stager interface {
	stage(ctx *Context) shiftStage
}

// inferShift serves a run of stages on the shifted rows (each weight prefix
// read in place, tensor.GemmShiftEx) from the dense input x, one sample
// group at a time: the first conv pads the group in from x (padIn), or the
// opening pool writes it into the first conv's image; each conv's product is
// copied out, or with a GroupNorm normalized with a ReLU straight out of its
// grid (normGrid), into the interior of the next conv's image, the last
// conv's into the dense output. Each conv's image holds one group and is zeroed
// once per call: every group rewrites the same interior, so the pads stay
// zero, and a short last group leaves stale frames behind its samples that
// no output it keeps reads. The groups run one after another through one
// grid, and the images stay cache-hot from producer to consumer. The convs
// of a run share one geometry (same plane, same padding).
func inferShift(ctx *Context, x *tensor.Tensor, stages []shiftStage) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D.Infer input %v, want rank 4", x.Shape))
	}
	arena, r := arenaOf(ctx), ctx.EffRate()
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	convs := stages
	if p := stages[0].pool; p != nil {
		h, w = tensor.ConvOutSize(h, p.K, p.Stride, 0), tensor.ConvOutSize(w, p.K, p.Stride, 0)
		convs = stages[1:]
	}
	s := convs[0].conv.shiftGeom(ctx.EffTier(), batch, h, w)
	maxOut := 0
	for t := range convs {
		st := &convs[t]
		st.aIn, st.aOut = st.conv.Active(r)
		if st.aIn != ch {
			panic(fmt.Sprintf("nn: Conv2D.Infer input [%d %d %d %d], want [B %d H W] at rate %v", batch, ch, h, w, st.aIn, r))
		}
		st.img = arena.Get(s.imgLen(st.aIn)).Data
		ch, maxOut = st.aOut, max(maxOut, st.aOut)
	}
	// Every element of y is written by a copy-out or a grid pass.
	y := arena.GetUninit(batch, ch, h, w)
	ext := arena.GetUninit(maxOut, s.n).Data
	dense := denseLayout(ch, h, w)
	for b0 := 0; b0 < batch; b0 += s.g {
		if b0 > 0 && len(stages) > 1 {
			ctx.yield()
		}
		gb := min(s.g, batch-b0)
		if p := stages[0].pool; p != nil {
			plane := x.Dim(2) * x.Dim(3)
			in := convs[0].aIn
			p.pool(convs[0].img, s.image(in), nil, x.Data[b0*in*plane:], gb*in, x.Dim(2), x.Dim(3))
		} else {
			s.padIn(convs[0].img, x.Data, convs[0].aIn, b0, gb)
		}
		for t := range convs {
			st := &convs[t]
			st.conv.shiftConv(s, st.conv.weightA(st.aIn, &st.ep), st.aOut, gb, st.img, ext)
			dst, out, ob := y.Data, dense, b0
			if t+1 < len(convs) {
				dst, out, ob = convs[t+1].img, s.image(st.aOut), 0
			}
			if st.gn != nil {
				s.normGrid(st.gn, dst, out, nil, ext, st.aOut, ob, gb)
			} else {
				s.copyOut(dst, out, ext, st.aOut, ob, gb)
			}
		}
	}
	return y
}

// Backward accumulates dW, dB, returns dx[B, aIn, H, W] and drops the
// cached input. Each part of the batch (span) accumulates into a private dW
// (and dB) that covers only the active aOut × colRows block, packed with row
// stride colRows, so its size and the reduction scale with r²; the reduction
// into the gradients follows the loop, in part order, so no bit depends on
// which goroutine ran a part.
func (c *Conv2D) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return c.backward(ctx, dy, nil)
}

// backward is Backward. A non-nil gn is the GroupNorm forward ran with
// (FusedConvAct): dy is then the trailing ReLU's output gradient, and
// backwardShift runs the ReLU's and gn's backward into the padded image it
// multiplies, adding gn's dγ and dβ after the loop.
func (c *Conv2D) backward(ctx *Context, dy *tensor.Tensor, gn *GroupNorm) *tensor.Tensor {
	if c.x == nil {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad %v without a matching Forward", dy.Shape))
	}
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
		s = c.shiftGeom(tensor.TierExact, batch, c.h, c.w)
		units = s.groups(batch)
	}
	arena := arenaOf(ctx)
	rg := convRegion{nw: maxWorkers(units), s: s, dy: dy, gn: gn}
	if same {
		// The shifted product assigns every dx element.
		rg.dx = arena.GetUninit(batch, c.aIn, c.h, c.w)
		if gn != nil {
			rg.part = arena.GetUninit(2 * batch * c.aOut).Data
		}
	} else {
		// Col2Im accumulates.
		rg.dx = arena.Get(batch, c.aIn, c.h, c.w)
	}
	mark := arena.Mark()
	dwLen := c.aOut * colRows
	grads := scratch(arena, rg.nw, dwLen+c.aOut, dwLen+c.aOut)
	for i, g := range grads[:rg.nw] {
		rg.dws[i], rg.dbs[i] = g[:dwLen], g[dwLen:]
	}
	if same {
		c.backwardShift(arena, rg)
		if gn != nil {
			gn.addPartials(rg.part, batch)
		}
	} else {
		c.backwardIm2col(arena, rg)
	}
	gW := c.W.Grad().Data
	for i := 0; i < rg.nw; i++ {
		for oc := 0; oc < c.aOut; oc++ {
			gw := gW[oc*ldW : oc*ldW+colRows]
			for j, v := range rg.dws[i][oc*colRows : (oc+1)*colRows] {
				if v != 0 {
					gw[j] += v
				}
			}
		}
		if c.B != nil {
			gb := c.B.Grad().Data
			for j, v := range rg.dbs[i] {
				gb[j] += v
			}
		}
	}
	arena.Release(mark)
	c.x = nil
	return rg.dx
}

// backwardShift is Backward of a same convolution on the shifted-row
// lowering, one part of the batch per part of its region
// (backwardShiftPart), a sample group at a time. The data gradient is itself a same convolution: dy
// through the kernel flipped in space and transposed in channels (wf [aIn ×
// aOut·KH·KW], built once per call), run by shiftConv on dy's padded image
// straight into dx. That image, read from the first pixel on, is the output
// gradient on the extended grid (zero in the gaps and pad rows), and dW is
// its windowed dot with the re-padded input (tensor.GemmShiftTB): dW[oc, q]
// = Σ_j dy[oc, j]·x_q[j]; the bias gradient sums its planes. Nothing builds
// a column matrix or packs a transpose, and Forward cached only x.
//
// With a non-nil gn the image is not padded from dy: GroupNorm.backwardSample
// writes each sample's conv output gradient into it, the ReLU mask and x̂
// recomputed from gn's cache (the conv output and its statistics), with its
// dγ and dβ shares in part.
func (c *Conv2D) backwardShift(arena *tensor.Arena, rg convRegion) {
	s := rg.s
	rg.wf = arena.GetUninit(c.aIn * c.aOut * c.KH * c.KW).Data
	c.flippedKernel(rg.wf)
	images := s.imgLen(c.aIn) + s.imgLen(c.aOut)
	rg.scratch = scratch(arena, rg.nw, images+c.aIn*s.n, images)
	rg.body = (*Conv2D).backwardShiftPart
	c.run(rg)
}

// backwardShiftPart is part i of backwardShift: its span a sample group at
// a time, on the part's images and grid.
func (c *Conv2D) backwardShiftPart(i int) {
	rg := &c.region
	s, gn, dy := rg.s, rg.gn, rg.dy
	colRows, dcolRows := c.aIn*c.KH*c.KW, c.aOut*c.KH*c.KW
	a := shiftA{a: rg.wf, lda: dcolRows, k: dcolRows}
	xLen, dyLen := s.imgLen(c.aIn), s.imgLen(c.aOut)
	sc := rg.scratch[i]
	ximg, dyimg, ext := sc[:xLen], sc[xLen:xLen+dyLen], sc[xLen+dyLen:]
	plane := c.aOut * c.h * c.w
	dxPlanes := denseLayout(c.aIn, c.h, c.w)
	var ag int
	var gnOut tensor.Grid
	if gn != nil {
		ag = gn.activeGroups(c.aOut)
		gnOut = tensor.Grid{Ch: gn.C / gn.NormGroups, Rows: s.h, Cols: s.w, LD: s.ld, CS: s.plane}
	}
	for b0, end := span(dy.Dim(0), rg.nw, i); b0 < end; b0 += s.g {
		gb := min(s.g, end-b0)
		if gn == nil {
			s.padIn(dyimg, dy.Data, c.aOut, b0, gb)
		} else {
			for b := b0; b < b0+gb; b++ {
				lo := b * plane
				gn.backwardSample(dyimg[(b-b0)*s.frame+s.origin():], gnOut, dy.Data[lo:lo+plane], gn.x.Data[lo:lo+plane],
					gn.stats[2*b*ag:], ag, true, rg.part[2*b*c.aOut:], ext)
			}
		}
		c.shiftConv(s, a, c.aIn, gb, dyimg, ext)
		s.copyOut(rg.dx.Data, dxPlanes, ext, c.aIn, b0, gb)
		s.padIn(ximg, c.x.Data, c.aIn, b0, gb)
		tensor.GemmShiftTB(c.aOut, colRows, s.grid(gb), c.KH, c.KW, dyimg[s.origin():], s.plane, ximg, s.ld, s.plane, rg.dws[i], colRows)
		if c.B != nil {
			for sm := 0; sm < gb; sm++ {
				addBiasGrad(rg.dbs[i], dyimg[sm*s.frame+s.origin():], s.h, s.w, s.ld, s.plane)
			}
		}
	}
}

// backwardIm2col is Backward of every other shape, one part of the batch
// per part of its region (backwardIm2colPart), a sample at a time: dW +=
// dy_b · col_bᵀ (GemmTB), and dcol = Wᵀ·dy_b (GemmTA) scattered back into
// dx_b (Col2Im), both on the part's column matrices (dcol is zeroed before its accumulating
// product). A point-wise convolution's column matrices are x_b and dx_b
// themselves (columns): dx is zeroed, so its product accumulates straight
// into dx_b, which is the sum Col2Im would have added to it.
func (c *Conv2D) backwardIm2col(arena *tensor.Arena, rg convRegion) {
	colLen := c.colLen(c.aIn*c.KH*c.KW, c.outH*c.outW)
	rg.scratch, rg.dcols = scratch(arena, rg.nw, colLen, 0), scratch(arena, rg.nw, colLen, 0)
	rg.body = (*Conv2D).backwardIm2colPart
	c.run(rg)
}

// backwardIm2colPart is part i of backwardIm2col: its span a sample at a
// time, on the part's column matrices.
func (c *Conv2D) backwardIm2colPart(i int) {
	rg := &c.region
	dy, dx := rg.dy, rg.dx
	inPlane := c.aIn * c.h * c.w
	spatial := c.outH * c.outW
	outPlane := c.aOut * spatial
	colRows := c.aIn * c.KH * c.KW
	ldW := c.In * c.KH * c.KW
	for b, end := span(dy.Dim(0), rg.nw, i); b < end; b++ {
		dxb := dx.Data[b*inPlane : (b+1)*inPlane]
		col := c.columns(c.x.Data[b*inPlane:(b+1)*inPlane], c.aIn, c.h, c.w, rg.scratch[i])
		g := dy.Data[b*outPlane : (b+1)*outPlane]
		tensor.GemmTB(c.aOut, colRows, spatial, g, spatial, col, spatial, rg.dws[i], colRows)
		if c.pointwise() {
			tensor.GemmTA(colRows, spatial, c.aOut, c.W.Value.Data, ldW, g, spatial, dxb, spatial)
		} else {
			clear(rg.dcols[i])
			tensor.GemmTA(colRows, spatial, c.aOut, c.W.Value.Data, ldW, g, spatial, rg.dcols[i], spatial)
			tensor.Col2Im(rg.dcols[i], c.aIn, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, dxb)
		}
		if c.B != nil {
			addBiasGrad(rg.dbs[i], g, 1, spatial, spatial, spatial)
		}
	}
}

// addBiasGrad adds each of one sample's output-gradient planes, summed in
// index order, to db: channel oc's plane is rows rows of cols elements at
// g[oc·cs + r·ld:], packed planes or a padded image alike.
func addBiasGrad(db, g []float64, rows, cols, ld, cs int) {
	for oc := range db {
		s := 0.0
		for r := 0; r < rows; r++ {
			for _, v := range g[oc*cs+r*ld:][:cols] {
				s += v
			}
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

// Params returns the learnable parameters.
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}
