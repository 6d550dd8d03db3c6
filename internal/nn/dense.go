package nn

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/tensor"
)

// Dense is a fully-connected layer y = W·x + b with prefix slicing on both
// the input and output dimension (Section 3.1 of the paper). The weight is
// stored as [Out × In]; at slice rate r only the leading aOut rows and aIn
// columns participate, which realizes the gating variables of Equation 1
// with the partial order of Equation 2 at zero masking cost.
type Dense struct {
	In, Out int
	// InSpec and OutSpec control slicing of the two dimensions.
	InSpec, OutSpec SliceSpec
	// Rescale multiplies the pre-activation by In/activeIn so that the
	// output scale is stable as the fan-in shrinks. Used in stacks without
	// normalization layers (the paper's NNLM output layer rescaling).
	Rescale bool

	W *Param // [Out, In]
	B *Param // [Out], nil when built without bias

	// packs caches the per-width micro-panel packs of W for the GemmTB
	// orientation of the inference path: each active (aOut, aIn) prefix is
	// packed once (tensor.PackTB) and then served read-only to every worker.
	// Training invalidates it (see Forward).
	packs packCache

	// cached forward state
	x         *tensor.Tensor
	aIn, aOut int
	batch     int
	scale     float64
}

// NewDense constructs a Dense layer with He initialization.
func NewDense(in, out int, inSpec, outSpec SliceSpec, bias bool, rng *rand.Rand) *Dense {
	inSpec.Validate("Dense.In", in)
	outSpec.Validate("Dense.Out", out)
	d := &Dense{
		In: in, Out: out,
		InSpec: inSpec, OutSpec: outSpec,
		W: NewParam("dense.W", true, out, in),
	}
	tensor.InitHe(d.W.Value, in, rng)
	if bias {
		d.B = NewParam("dense.B", false, out)
	}
	return d
}

// Active returns the active (input, output) widths at slice rate r.
func (d *Dense) Active(r float64) (aIn, aOut int) {
	return d.InSpec.Active(r, d.In), d.OutSpec.Active(r, d.Out)
}

// Forward computes y[B × aOut] from x[B × aIn].
func (d *Dense) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	// Forward means training (or at least a path that may precede a weight
	// update): any cached inference packs would go stale, so drop them.
	d.packs.invalidate()
	r := ctx.EffRate()
	d.aIn, d.aOut = d.Active(r)
	if x.Rank() != 2 || x.Dim(1) != d.aIn {
		panic(fmt.Sprintf("nn: Dense.Forward input %v, want [B %d] at rate %v", x.Shape, d.aIn, r))
	}
	d.batch = x.Dim(0)
	d.x = x
	d.scale = 1
	if d.Rescale && d.aIn < d.In {
		d.scale = float64(d.In) / float64(d.aIn)
	}
	// y = scale · x·Wᵀ + b over the sliced prefix of W, on the exact-tier
	// kernel and epilogue Infer uses, so the two paths agree bit for bit.
	y := arenaOf(ctx).GetUninit(d.batch, d.aOut)
	ep := tensor.Epilogue{Alpha: d.scale}
	if d.B != nil {
		ep.ColShift = d.B.Value.Data
	}
	tensor.GemmTBEx(d.batch, d.aOut, d.aIn, x.Data, d.aIn, d.W.Value.Data, d.In, y.Data, d.aOut, &ep)
	return y
}

// Infer computes y[B × aOut] from x[B × aIn] on the read-only inference
// path: no state is cached, the sliced weight prefix is read in place, and
// the output comes from the context's arena. Rescaling and bias ride the
// GEMM epilogue — one pass over the output instead of three.
func (d *Dense) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return d.inferFused(ctx, x, false)
}

// inferFused is Infer with an optionally fused trailing ReLU (used by the
// peephole fusion pass for Dense→ReLU chains). In the [B × aOut] output the
// output unit is the column index, so the bias is a per-column epilogue
// shift and the rescale factor is the uniform Alpha.
func (d *Dense) inferFused(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	r := ctx.EffRate()
	aIn, aOut := d.Active(r)
	if x.Rank() != 2 || x.Dim(1) != aIn {
		panic(fmt.Sprintf("nn: Dense.Infer input %v, want [B %d] at rate %v", x.Shape, aIn, r))
	}
	batch := x.Dim(0)
	y := arenaOf(ctx).GetUninit(batch, aOut)
	ep := tensor.Epilogue{ReLU: relu}
	if d.Rescale && aIn < d.In {
		ep.Alpha = float64(d.In) / float64(aIn)
	}
	if d.B != nil {
		ep.ColShift = d.B.Value.Data
	}
	if tensor.GemmTBPrefersPacked(batch, aOut, aIn) {
		pm := d.packs.get(packKey{aOut, aIn}, func() *tensor.PackedMat {
			return tensor.PackTB(aOut, aIn, d.W.Value.Data, d.In)
		})
		tensor.GemmTBPackedExT(ctx.EffTier(), batch, aOut, aIn, x.Data, aIn, pm, y.Data, aOut, &ep)
		return y
	}
	tensor.GemmTBEx(batch, aOut, aIn, x.Data, aIn, d.W.Value.Data, d.In, y.Data, aOut, &ep)
	return y
}

// packCacheBytes reports the resident per-width pack memory (see
// PackCacheBytes).
func (d *Dense) packCacheBytes() int64 { return d.packs.bytes() }

// Backward accumulates dW, dB, returns dx[B × aIn] and drops the cached
// input.
func (d *Dense) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if dy.Rank() != 2 || dy.Dim(0) != d.batch || dy.Dim(1) != d.aOut {
		panic(fmt.Sprintf("nn: Dense.Backward grad %v, want [%d %d]", dy.Shape, d.batch, d.aOut))
	}
	if d.B != nil {
		gb := d.B.Grad().Data
		for i := 0; i < d.batch; i++ {
			row := dy.Row(i)
			for j := 0; j < d.aOut; j++ {
				gb[j] += row[j]
			}
		}
	}
	// The rescale factor multiplies the W·x term only (bias added after),
	// so it scales both dW and dx but not dB.
	arena := arenaOf(ctx)
	dyEff := dy
	if d.scale != 1 {
		dyEff = arena.GetUninit(dy.Shape...)
		copy(dyEff.Data, dy.Data)
		dyEff.Scale(d.scale)
	}
	// dW[aOut × aIn] += dyᵀ · x
	tensor.GemmTA(d.aOut, d.aIn, d.batch, dyEff.Data, d.aOut, d.x.Data, d.aIn, d.W.Grad().Data, d.In)
	// dx[B × aIn] += dy · W
	dx := arena.Get(d.batch, d.aIn)
	tensor.Gemm(d.batch, d.aIn, d.aOut, dyEff.Data, d.aOut, d.W.Value.Data, d.In, dx.Data, d.aIn)
	d.x = nil
	return dx
}

// Params returns the learnable parameters.
func (d *Dense) Params() []*Param {
	if d.B == nil {
		return []*Param{d.W}
	}
	return []*Param{d.W, d.B}
}
