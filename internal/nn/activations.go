package nn

import (
	"fmt"
	"math"

	"modelslicing/internal/tensor"
)

// ReLU is the rectified linear unit, applied element-wise.
type ReLU struct {
	// y is Forward's output, cached for Backward (the gradient passes where
	// y > 0) and dropped by it.
	y *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0) and caches the output.
func (r *ReLU) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := arenaOf(ctx).GetUninit(x.Shape...)
	relu(y.Data, x.Data)
	r.y = y
	return y
}

// Infer computes max(x, 0) without caching anything (read-only path).
func (r *ReLU) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := arenaOf(ctx).GetUninit(x.Shape...)
	relu(y.Data, x.Data)
	return y
}

// relu writes max(x, 0) into dst on the normalization kernel's clamp. The
// affine is the identity, exact for every input, and the clamp keeps v > 0
// and turns anything else — −0 and NaN included — into +0; +Inf and
// subnormals pass through. dst is fully written.
func relu(dst, x []float64) { tensor.NormAffine(dst, x, 0, 1, 1, 0, true) }

// Backward passes the gradient where the cached output is positive and
// drops the output.
func (r *ReLU) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if r.y == nil || len(dy.Data) != len(r.y.Data) {
		panic(fmt.Sprintf("nn: ReLU.Backward grad %v without a matching Forward", dy.Shape))
	}
	dx := arenaOf(ctx).GetUninit(dy.Shape...)
	reluGrad(dx.Data, dy.Data, r.y.Data)
	r.y = nil
	return dx
}

// reluGrad writes dy where y > 0 and +0 elsewhere, without a branch. y is a
// ReLU output, so it is +0 or positive, and y > 0 exactly when its bits are
// not all zero; the mask is then all ones.
func reluGrad(dx, dy, y []float64) {
	dx, y = dx[:len(dy)], y[:len(dy)]
	for i, v := range dy {
		m := uint64(-int64(math.Float64bits(y[i])) >> 63)
		dx[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes each element with probability P during training and scales
// the survivors by 1/(1-P) (inverted dropout); evaluation is the identity.
type Dropout struct {
	P    float64
	mask []float64
	used bool
}

// NewDropout constructs a dropout layer with drop probability p ∈ [0, 1).
func NewDropout(p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: Dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p}
}

// Forward applies the stochastic mask during training.
func (d *Dropout) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if ctx == nil || !ctx.Training || d.P == 0 {
		d.used = false
		return x
	}
	if ctx.RNG == nil {
		panic("nn: Dropout requires Context.RNG during training")
	}
	d.used = true
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float64, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	keep := 1 / (1 - d.P)
	y := arenaOf(ctx).Get(x.Shape...)
	for i, v := range x.Data {
		if ctx.RNG.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = keep
			y.Data[i] = v * keep
		}
	}
	return y
}

// Infer is the identity: inference never drops units.
func (d *Dropout) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor { return x }

// Backward applies the cached mask to the gradient.
func (d *Dropout) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if !d.used {
		return dy
	}
	dx := arenaOf(ctx).GetUninit(dy.Shape...)
	for i, v := range dy.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
