package baselines

import (
	"modelslicing/internal/cost"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// SkipNetLite reproduces the accuracy–cost behaviour of SkipNet-style
// dynamic block routing (Wang et al., 2018) without reinforcement learning:
// identity-shortcut residual blocks are trained with stochastic depth
// (random block dropping), which makes the network robust to skipping
// blocks at inference; blocks are then ranked by their measured residual
// contribution and the least important ones are skipped to meet a budget.
// DESIGN.md documents this substitution (the paper's gating network is
// replaced by contribution-ranked static routing, which exercises the same
// skip-blocks-at-inference code path and produces the same kind of
// accuracy-vs-FLOPs curve).
type SkipNetLite struct {
	// Net is nn.Fuse of the gated network, which every pass runs: it shares
	// the parameters, the gates stay in place, and its Conv→GroupNorm→ReLU
	// chains train as one pass, bit for bit the unfused chain.
	Net *nn.Sequential
	// plain is the gated network unfused, the layer list CurrentCost hands
	// to cost.Measure, which does not know the fused operators.
	plain []nn.Layer
	// gates index the skippable (identity-shortcut) residual layers.
	gates []*GatedResidual
}

// GatedResidual wraps an identity-shortcut residual block with a training
// drop probability and an inference skip switch.
type GatedResidual struct {
	Inner *nn.Residual
	// DropProb is the stochastic-depth drop probability during training.
	DropProb float64
	// Skip bypasses the block at inference.
	Skip bool

	// fused is nn.Fuse(Inner), which every pass runs: it shares Inner's
	// parameters, and its Conv→GroupNorm→ReLU chains train as one pass, bit
	// for bit the unfused chain. Inner stays the block cost.Measure reads.
	fused   *nn.Residual
	dropped bool
	// contribution accumulates ‖body(x)‖/‖x‖ measurements (importance).
	contribution float64
	measures     int
}

// Forward bypasses the body when dropped (training) or skipped (eval mode).
func (g *GatedResidual) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	if ctx.Training {
		g.dropped = g.DropProb > 0 && ctx.RNG != nil && ctx.RNG.Float64() < g.DropProb
	} else {
		g.dropped = g.Skip
	}
	if g.dropped {
		return x
	}
	return g.fused.Forward(ctx, x)
}

// Backward is the identity for dropped blocks.
func (g *GatedResidual) Backward(ctx *nn.Context, dy *tensor.Tensor) *tensor.Tensor {
	if g.dropped {
		return dy
	}
	return g.fused.Backward(ctx, dy)
}

// Infer runs the block, or the identity when it is skipped.
func (g *GatedResidual) Infer(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	if g.Skip {
		return x
	}
	return g.fused.Infer(ctx, x)
}

// Params returns the wrapped block's parameters.
func (g *GatedResidual) Params() []*nn.Param { return g.Inner.Params() }

// NewSkipNetLite wraps every identity-shortcut residual block of a ResNet
// built by models.NewResNet with a stochastic-depth gate.
func NewSkipNetLite(net *nn.Sequential, dropProb float64) *SkipNetLite {
	s := &SkipNetLite{}
	for _, l := range net.Layers {
		if res, ok := l.(*nn.Residual); ok && res.Short == nil {
			g := &GatedResidual{Inner: res, DropProb: dropProb, fused: nn.Fuse(res).(*nn.Residual)}
			s.gates = append(s.gates, g)
			l = g
		}
		s.plain = append(s.plain, l)
	}
	s.Net = nn.Fuse(&nn.Sequential{Layers: s.plain}).(*nn.Sequential)
	return s
}

// NumSkippable returns the number of gated blocks.
func (s *SkipNetLite) NumSkippable() int { return len(s.gates) }

// Forward delegates to the wrapped network.
func (s *SkipNetLite) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	return s.Net.Forward(ctx, x)
}

// Backward delegates to the wrapped network.
func (s *SkipNetLite) Backward(ctx *nn.Context, dy *tensor.Tensor) *tensor.Tensor {
	return s.Net.Backward(ctx, dy)
}

// Infer delegates to the wrapped network.
func (s *SkipNetLite) Infer(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	return s.Net.Infer(ctx, x)
}

// Params delegates to the wrapped network.
func (s *SkipNetLite) Params() []*nn.Param { return s.Net.Params() }

// MeasureContributions estimates each gated block's importance as the mean
// ratio ‖body(x)‖₂/‖x‖₂ over the given batches (full network, no skips).
func (s *SkipNetLite) MeasureContributions(batches []train.Batch) {
	for _, g := range s.gates {
		g.Skip = false
		g.contribution = 0
		g.measures = 0
	}
	ctx := nn.Eval(1)
	for _, b := range batches {
		x := b.X
		for _, l := range s.Net.Layers {
			if g, ok := l.(*GatedResidual); ok {
				y := g.fused.Body.Infer(ctx, x)
				xn := x.L2Norm()
				if xn > 0 {
					g.contribution += y.L2Norm() / xn
				}
				g.measures++
				y.Add(x) // identity shortcut
				x = y
				continue
			}
			x = l.Infer(ctx, x)
		}
	}
}

// SkipLowest skips the k gated blocks with the smallest measured
// contribution (call MeasureContributions first) and returns their indices.
func (s *SkipNetLite) SkipLowest(k int) []int {
	type scored struct {
		idx int
		c   float64
	}
	order := make([]scored, len(s.gates))
	for i, g := range s.gates {
		c := g.contribution
		if g.measures > 0 {
			c /= float64(g.measures)
		}
		order[i] = scored{i, c}
		g.Skip = false
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].c < order[i].c {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	var skipped []int
	for i := 0; i < k && i < len(order); i++ {
		s.gates[order[i].idx].Skip = true
		skipped = append(skipped, order[i].idx)
	}
	return skipped
}

// CurrentCost returns the inference MACs of the network with the current
// skip configuration for the given single-sample input shape.
func (s *SkipNetLite) CurrentCost(inShape []int) int64 {
	var total int64
	shape := inShape
	for _, l := range s.plain {
		if g, ok := l.(*GatedResidual); ok {
			if g.Skip {
				continue // identity: no MACs, shape unchanged
			}
			p, out := cost.Measure(g.Inner, shape, 1)
			total += p.MACs
			shape = out
			continue
		}
		p, out := cost.Measure(l, shape, 1)
		total += p.MACs
		shape = out
	}
	return total
}

// Ensemble is a set of independently trained fixed-width models with their
// costs — the "ensemble of varying width/depth" baselines. Members must be
// appended in ascending cost order.
type Ensemble struct {
	Members []EnsembleMember
}

// EnsembleMember couples a model with its cost and identity.
type EnsembleMember struct {
	Name  string
	Model nn.Layer
	MACs  int64
	// Params is the full parameter count (storage footprint term of
	// Table 5's comparison).
	Params int64
}

// Add appends a member (enforcing ascending MACs).
func (e *Ensemble) Add(m EnsembleMember) {
	if len(e.Members) > 0 && m.MACs < e.Members[len(e.Members)-1].MACs {
		panic("baselines: ensemble members must be added in ascending cost order")
	}
	e.Members = append(e.Members, m)
}

// Best returns the most expensive member within the MAC budget, falling back
// to the cheapest member.
func (e *Ensemble) Best(budget int64) EnsembleMember {
	best := e.Members[0]
	for _, m := range e.Members {
		if m.MACs <= budget {
			best = m
		}
	}
	return best
}

// TotalParams sums the storage footprint of all members — the deployment
// cost an ensemble pays that a sliced model does not (Section 5.4).
func (e *Ensemble) TotalParams() int64 {
	var t int64
	for _, m := range e.Members {
		t += m.Params
	}
	return t
}
