package nn

import (
	"fmt"

	"modelslicing/internal/tensor"
)

// Residual computes y = Body(x) + Short(x); a nil Short is the identity
// mapping of ResNet (He et al., 2016). Because model slicing keeps the same
// slice rate across all layers, the active widths of the body output and the
// shortcut agree by construction, so identity shortcuts remain valid at every
// slice rate — the property Section 3.5 builds the group-residual-learning
// argument on.
type Residual struct {
	Body  Layer
	Short Layer // nil means identity
}

// NewResidual constructs a residual block.
func NewResidual(body, short Layer) *Residual { return &Residual{Body: body, Short: short} }

// Forward computes the two branches and sums them.
func (r *Residual) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(ctx, x)
	s := x
	if r.Short != nil {
		s = r.Short.Forward(ctx, x)
	}
	return branchSum(ctx, y, s)
}

// Infer computes both branches on the read-only path and sums them.
func (r *Residual) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Infer(ctx, x)
	s := x
	if r.Short != nil {
		s = r.Short.Infer(ctx, x)
	}
	return branchSum(ctx, y, s)
}

// branchSum returns y + s in an arena-backed output, never in place: a
// pass-through body or shortcut may alias the block's input.
func branchSum(ctx *Context, y, s *tensor.Tensor) *tensor.Tensor {
	if !y.SameShape(s) {
		panic(fmt.Sprintf("nn: Residual branch shapes differ: body %v vs shortcut %v", y.Shape, s.Shape))
	}
	out := arenaOf(ctx).GetUninit(y.Shape...)
	for i, v := range y.Data {
		out.Data[i] = v + s.Data[i]
	}
	return out
}

// Backward propagates the gradient through both branches and sums the input
// gradients.
func (r *Residual) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	dx := r.Body.Backward(ctx, dy)
	if r.Short != nil {
		ds := r.Short.Backward(ctx, dy)
		dx.Add(ds)
	} else {
		dx.Add(dy)
	}
	return dx
}

// Params returns the parameters of both branches.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Short != nil {
		ps = append(ps, r.Short.Params()...)
	}
	return ps
}
