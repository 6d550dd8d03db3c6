package nn

import (
	"fmt"

	"modelslicing/internal/tensor"
)

// Inference-time peephole fusion. Fuse rewrites a layer graph into an
// inference-optimized view that shares the original parameters: chains that
// the eager path executes as separate full passes over the activations are
// collapsed into single fused operators built on the GEMM epilogue
// (tensor.GemmEx / tensor.GemmTBEx), the shifted conv's product grid and the
// fused-activation normalization kernels:
//
//	Conv2D → BatchNorm/SwitchableBatchNorm (→ ReLU)  ⇒  one GEMM with a
//	    folded per-channel scale/shift (+ clamp) epilogue. The running
//	    statistics are folded at Fuse time into O(widths·channels) vectors
//	    (BatchNorm.FoldedAffine), with the conv bias absorbed into the shift.
//	Conv2D → ReLU                                    ⇒  one GEMM, clamp
//	    (+ bias) in the epilogue.
//	same Conv2D → GroupNorm → ReLU                   ⇒  one pass over the
//	    shifted conv's product grid: GroupNorm statistics are per-sample and
//	    data-dependent, so they never fold into the GEMM epilogue (which
//	    keeps only the bias), but each sample group's grid is normalized and
//	    clamped straight into the output planes while it is cache-hot, with
//	    no copy-out and no conv output (Conv2D.shiftConv).
//	Dense → ReLU                                     ⇒  one GEMM with bias,
//	    rescale and clamp in the epilogue.
//	GroupNorm/BatchNorm/SwitchableBatchNorm → ReLU   ⇒  the clamp rides the
//	    normalization's write pass (tensor.NormAffine).
//
// It then marks the shifted-row runs of each Sequential (shiftedRuns):
// chains of same convs, opened by a conv or a max-pool, that either tier
// serves a sample group at a time, each layer writing its output straight
// into the next conv's padded image.
//
// Its Infer is numerically within 1e-12 of the unfused chain (bit-identical
// except where BatchNorm folding refactors the arithmetic). The GroupNorm
// form of FusedConvAct also trains as one pass: Forward normalizes each
// sample group's grid on the conv's batch workers and caches only the conv
// output and GroupNorm's (mean, 1/σ); Backward runs the ReLU mask and
// GroupNorm's backward into the padded image the conv's gradients read.
// Forward output, dx and every parameter gradient are bit-identical to the
// unfused chain's, so slicing.Trainer steps the fused view. Every other
// fused type delegates Forward/Backward to the original layers, so the view
// remains a well-formed Layer. Weights are shared, not copied — a model must
// not be trained while a fused view of it is serving, and BatchNorm folds
// must be rebuilt (re-Fuse) after any further training.

// Fuse returns an inference-optimized view of l sharing its parameters.
// Layers with nothing to fuse are returned as-is; Sequential and Residual
// containers are rebuilt with fused children.
func Fuse(l Layer) Layer {
	switch v := l.(type) {
	case *Sequential:
		return fuseSequential(v)
	case *Residual:
		r := &Residual{Body: Fuse(v.Body)}
		if v.Short != nil {
			r.Short = Fuse(v.Short)
		}
		return r
	default:
		return l
	}
}

// fuseSequential scans the layer list with a peephole window, emitting fused
// operators for recognized chains and recursing into containers elsewhere,
// then marks the shifted-row runs of the result.
func fuseSequential(s *Sequential) *Sequential {
	out := &Sequential{Layers: make([]Layer, 0, len(s.Layers))}
	for i := 0; i < len(s.Layers); {
		if f, used := fuseAt(s.Layers, i); f != nil {
			out.Layers = append(out.Layers, f)
			i += used
			continue
		}
		out.Layers = append(out.Layers, Fuse(s.Layers[i]))
		i++
	}
	out.runs = shiftedRuns(out.Layers)
	out.trunk = trunkLen(out.Layers)
	return out
}

// trunkLen is the length of a fused Sequential's trunk, which Infer may
// serve a chunk of samples at a time: the longest prefix of per-sample
// layers (sampleShape), ending at the first global average pool.
func trunkLen(layers []Layer) int {
	for i, l := range layers {
		if _, _, _, ok := sampleShape(l, 1, 1, 1, 1); !ok {
			return i
		}
		if _, gap := l.(*GlobalAvgPool); gap {
			return i + 1
		}
	}
	return len(layers)
}

// sampleShape is the per-sample output shape of l at rate r for a c×h×w
// input sample (a global average pool's [c] is c×1×1), and whether l is a
// per-sample layer: one whose Infer treats each sample on its own, bit for
// bit at any batch size. Those are the convs and their fusions, the
// eval-mode norms, ReLU, the pools, and containers of nothing else.
func sampleShape(l Layer, r float64, c, h, w int) (int, int, int, bool) {
	ok := true
	switch v := l.(type) {
	case *Conv2D:
		_, c = v.Active(r)
		h, w = v.OutShape(h, w)
	case *FusedConvAct:
		return sampleShape(v.conv, r, c, h, w)
	case *MaxPool2D:
		h, w = tensor.ConvOutSize(h, v.K, v.Stride, 0), tensor.ConvOutSize(w, v.K, v.Stride, 0)
	case *GlobalAvgPool:
		h, w = 1, 1
	case *FusedNormAct, actNorm, *ReLU:
	case *Residual:
		if v.Short != nil {
			_, _, _, ok = sampleShape(v.Short, r, c, h, w)
		}
		c, h, w, ok2 := sampleShape(v.Body, r, c, h, w)
		return c, h, w, ok && ok2
	case *Sequential:
		for _, l := range v.Layers {
			if c, h, w, ok = sampleShape(l, r, c, h, w); !ok {
				break
			}
		}
	default:
		ok = false
	}
	return c, h, w, ok
}

// maxRun caps the layers of a shifted-row run, so a pass sets its stages up
// in a fixed array.
const maxRun = 8

// shiftedRuns builds a fused Sequential's table of shifted-row runs (nil when
// it has none): runs[i] is the number of layers, at least two, of the run
// that starts at layer i. A run is a chain of handoff edges, each into a
// same conv on the shifted rows (a Conv2D or FusedConvAct) from a same conv
// of its padding, whose product grid has the image's rows, or, opening the
// run, from a max-pool; Sequential.Infer serves it on either tier as one
// step (inferShift), group by group, each producer writing straight into
// the interior of the next conv's padded image.
func shiftedRuns(layers []Layer) []int {
	var runs []int
	for i := 0; i+1 < len(layers); {
		n := 1
		_, pool := layers[i].(*MaxPool2D)
		p := shiftedConv(layers[i])
		for i+n < len(layers) && n < maxRun {
			c := shiftedConv(layers[i+n])
			if c == nil || !(pool && n == 1 || p != nil && p.Pad == c.Pad) {
				break
			}
			p = c
			n++
		}
		if n > 1 {
			if runs == nil {
				runs = make([]int, len(layers))
			}
			runs[i] = n
		}
		i += n
	}
	return runs
}

// shiftedConv returns the same convolution l runs on the shifted rows (a
// Conv2D, or a FusedConvAct's), or nil.
func shiftedConv(l Layer) *Conv2D {
	var c *Conv2D
	switch v := l.(type) {
	case *Conv2D:
		c = v
	case *FusedConvAct:
		c = v.conv
	default:
		return nil
	}
	if !c.sameConv() {
		return nil
	}
	return c
}

// fuseAt tries to start a fused chain at layers[i], returning the fused
// operator and the number of layers it consumed (nil, 0 when no pattern
// matches).
func fuseAt(layers []Layer, i int) (Layer, int) {
	rest := layers[i:]
	switch v := rest[0].(type) {
	case *Conv2D:
		if len(rest) >= 3 && isReLU(rest[2]) {
			if gn, ok := rest[1].(*GroupNorm); ok && gn.C == v.Out && gn.Spec == v.OutSpec && v.sameConv() {
				return &FusedConvAct{conv: v, gn: gn, src: rest[:3]}, 3
			}
		}
		if len(rest) >= 2 {
			if scales, shifts, ok := foldNorm(rest[1], v); ok {
				if len(rest) >= 3 && isReLU(rest[2]) {
					return &FusedConvAct{conv: v, scales: scales, shifts: shifts, relu: true, src: rest[:3]}, 3
				}
				return &FusedConvAct{conv: v, scales: scales, shifts: shifts, src: rest[:2]}, 2
			}
			if isReLU(rest[1]) {
				return &FusedConvAct{conv: v, relu: true, src: rest[:2]}, 2
			}
		}
	case *Dense:
		if len(rest) >= 2 && isReLU(rest[1]) {
			return &FusedDenseAct{dense: v, src: rest[:2]}, 2
		}
	case actNorm:
		if len(rest) >= 2 && isReLU(rest[1]) {
			return &FusedNormAct{norm: v, src: rest[:2]}, 2
		}
	}
	return nil, 0
}

func isReLU(l Layer) bool {
	_, ok := l.(*ReLU)
	return ok
}

// foldNorm folds an evaluation-mode normalization layer following conv into
// per-width (scale, shift) channel vectors, absorbing the conv bias into the
// shift: norm(conv + bias) = scale·conv + (shift + scale·bias). Folding
// requires the norm to run per channel with frozen statistics (BatchNorm or
// SwitchableBatchNorm) over exactly the conv's output slicing, so the active
// widths of the two layers agree at every rate.
func foldNorm(l Layer, conv *Conv2D) (scales, shifts [][]float64, ok bool) {
	var bns []*BatchNorm
	switch v := l.(type) {
	case *BatchNorm:
		bns = []*BatchNorm{v}
	case *SwitchableBatchNorm:
		bns = v.BNs
	default:
		return nil, nil, false
	}
	for _, bn := range bns {
		if bn.C != conv.Out || bn.Spec != conv.OutSpec {
			return nil, nil, false
		}
	}
	for _, bn := range bns {
		scale, shift := bn.FoldedAffine()
		if conv.B != nil {
			for c := range shift {
				shift[c] += scale[c] * conv.B.Value.Data[c]
			}
		}
		scales = append(scales, scale)
		shifts = append(shifts, shift)
	}
	return scales, shifts, true
}

// widthIdx resolves which of a FusedConvAct's n folds a pass applies:
// ctx.WidthIdx, as SwitchableBatchNorm selects its BatchNorm.
func widthIdx(ctx *Context, n int) int {
	idx := 0
	if ctx != nil {
		idx = ctx.WidthIdx
	}
	if n == 1 {
		// A plain BatchNorm has one statistics set regardless of the
		// scheduled width index.
		return 0
	}
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("nn: fused norm width index %d out of range [0,%d)", idx, n))
	}
	return idx
}

// chainForward/chainBackward/chainParams delegate the training-path Layer
// contract of a fused operator to its source layers, so a fused view remains
// usable (and correct) outside the inference path.
func chainForward(src []Layer, ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range src {
		x = l.Forward(ctx, x)
	}
	return x
}

func chainBackward(src []Layer, ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(src) - 1; i >= 0; i-- {
		dy = src[i].Backward(ctx, dy)
	}
	return dy
}

func chainParams(src []Layer) []*Param {
	var ps []*Param
	for _, l := range src {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// FusedConvAct is a convolution with a folded normalization and/or ReLU in
// its GEMM epilogue, or a same convolution with a GroupNorm and ReLU on its
// product grid: the whole chain is one pass over the output instead of one
// GEMM plus up to two further full sweeps.
type FusedConvAct struct {
	conv *Conv2D
	// scales/shifts hold the folded per-channel affine per width index
	// (length 1 for BatchNorm, one per width for SwitchableBatchNorm, nil
	// when no normalization is folded). Conv bias is already absorbed.
	scales, shifts [][]float64
	relu           bool
	// gn is the GroupNorm of a Conv→GroupNorm→ReLU chain (nil otherwise).
	// It and the trailing ReLU run after the product, so the epilogue
	// carries only the bias.
	gn  *GroupNorm
	src []Layer
}

// Infer runs the fused chain through the per-sample conv lowering.
func (f *FusedConvAct) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return f.stage(ctx).infer(ctx, x)
}

// stage is the chain as a stage of a shifted-row run: the folded affine at
// ctx's width, or the bias, and the clamp as the epilogue, or the GroupNorm.
func (f *FusedConvAct) stage(ctx *Context) shiftStage {
	st := shiftStage{conv: f.conv, gn: f.gn, ep: tensor.Epilogue{ReLU: f.relu}}
	if f.scales != nil {
		idx := widthIdx(ctx, len(f.scales))
		st.ep.RowScale = f.scales[idx]
		st.ep.RowShift = f.shifts[idx]
	} else if f.conv.B != nil {
		st.ep.RowShift = f.conv.B.Value.Data
	}
	return st
}

// Forward runs a Conv→GroupNorm→ReLU as one pass on the conv's batch
// workers (Conv2D.forward with the GroupNorm), caching the conv output and
// each (sample, group)'s mean and 1/σ; every other chain runs its source
// layers (training/eager semantics).
func (f *FusedConvAct) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if f.gn != nil {
		return f.conv.forward(ctx, x, f.gn)
	}
	return chainForward(f.src, ctx, x)
}

// Backward back-propagates a Conv→GroupNorm→ReLU in the conv's backward
// worker loop (Conv2D.backward with the GroupNorm): the ReLU mask and
// GroupNorm's backward write the conv output gradient straight into the
// padded image the data and weight gradients read. Every other chain
// back-propagates through its source layers.
func (f *FusedConvAct) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if f.gn == nil {
		return chainBackward(f.src, ctx, dy)
	}
	if x := f.gn.x; x == nil || len(dy.Data) != len(x.Data) {
		panic(fmt.Sprintf("nn: FusedConvAct.Backward grad %v without a matching Forward", dy.Shape))
	}
	return f.conv.backward(ctx, dy, f.gn)
}

// Params returns the parameters of the source chain.
func (f *FusedConvAct) Params() []*Param { return chainParams(f.src) }

// FusedDenseAct is a dense layer with its trailing ReLU fused into the GEMM
// epilogue (alongside the bias and rescale the plain Infer already fuses).
type FusedDenseAct struct {
	dense *Dense
	src   []Layer
}

// Infer runs the fused Dense→ReLU chain as one epilogue GEMM.
func (f *FusedDenseAct) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return f.dense.inferFused(ctx, x, true)
}

// Forward runs the unfused source chain (training/eager semantics).
func (f *FusedDenseAct) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return chainForward(f.src, ctx, x)
}

// Backward back-propagates through the unfused source chain.
func (f *FusedDenseAct) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return chainBackward(f.src, ctx, dy)
}

// Params returns the parameters of the source chain.
func (f *FusedDenseAct) Params() []*Param { return chainParams(f.src) }

// FusedNormAct is a normalization layer with its trailing ReLU fused into
// the normalization's write pass — the fallback fusion when no preceding
// convolution takes the normalization (GroupNorm after anything but a same
// convolution; BatchNorm when no convolution precedes it).
type FusedNormAct struct {
	norm actNorm
	src  []Layer
}

// actNorm is a normalization whose inference pass can clamp its output as a
// trailing ReLU would: GroupNorm, BatchNorm and SwitchableBatchNorm.
type actNorm interface {
	Layer
	inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor
}

// Infer runs the fused norm→ReLU chain in one pass.
func (f *FusedNormAct) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return f.norm.inferAct(ctx, x, true)
}

// Forward runs the unfused source chain (training/eager semantics).
func (f *FusedNormAct) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return chainForward(f.src, ctx, x)
}

// Backward back-propagates through the unfused source chain.
func (f *FusedNormAct) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return chainBackward(f.src, ctx, dy)
}

// Params returns the parameters of the source chain.
func (f *FusedNormAct) Params() []*Param { return chainParams(f.src) }
