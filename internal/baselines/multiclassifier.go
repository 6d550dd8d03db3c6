// Package baselines implements the comparison systems of the paper's
// evaluation: multi-classifier early-exit networks (the depth-slicing proxy
// for MSDNet/ANN-style anytime prediction), Network-Slimming-style channel
// pruning, a SkipNet-like dynamic block-routing network, and fixed-width
// ensemble utilities. The SlimmableNet baseline needs no code of its own —
// it is models.NormSwitchable plus the slicing.Static scheduler.
package baselines

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/cost"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// MultiClassifier attaches auxiliary classification heads to intermediate
// depths of a backbone ("ResNet with Multi-Classifiers" in Figure 2): an
// early exit at head k uses only the backbone prefix up to tap k. This is
// the depth-slicing counterpart the paper contrasts with width slicing.
type MultiClassifier struct {
	Backbone *nn.Sequential
	// Taps are ascending backbone layer indices; head i reads the output of
	// Backbone.Layers[:Taps[i]]. The final tap is typically the last
	// feature layer.
	Taps  []int
	Heads []nn.Layer
	// Weights are the per-head loss weights for joint training (defaults to
	// uniform when nil).
	Weights []float64
}

// NewMultiClassifierCNN builds a multi-classifier over a CNN backbone whose
// tap outputs are [B, C, H, W]; each head is global-avg-pool → dense.
// tapChannels gives the channel count at each tap.
func NewMultiClassifierCNN(backbone *nn.Sequential, taps []int, tapChannels []int, classes int, rng *rand.Rand) *MultiClassifier {
	if len(taps) != len(tapChannels) {
		panic(fmt.Sprintf("baselines: %d taps but %d channel counts", len(taps), len(tapChannels)))
	}
	m := &MultiClassifier{Backbone: backbone, Taps: taps}
	for _, c := range tapChannels {
		m.Heads = append(m.Heads, nn.NewSequential(
			nn.NewGlobalAvgPool(),
			nn.NewDense(c, classes, nn.Fixed(), nn.Fixed(), true, rng),
		))
	}
	return m
}

// NumExits returns the number of early-exit points.
func (m *MultiClassifier) NumExits() int { return len(m.Heads) }

// ExitModel returns an inference-only Layer view of exit k (0-based) for
// evaluation helpers: the backbone prefix up to tap k, then head k.
func (m *MultiClassifier) ExitModel(k int) nn.Layer {
	return &exitView{prefix: &nn.Sequential{Layers: m.Backbone.Layers[:m.Taps[k]]}, head: m.Heads[k]}
}

type exitView struct {
	prefix *nn.Sequential
	head   nn.Layer
}

func (e *exitView) Infer(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	return e.head.Infer(ctx, e.prefix.Infer(ctx, x))
}

func (e *exitView) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	panic("baselines: exit views are inference-only; use TrainStep")
}

func (e *exitView) Backward(ctx *nn.Context, dy *tensor.Tensor) *tensor.Tensor {
	panic("baselines: exit views are inference-only; use TrainStep")
}

func (e *exitView) Params() []*nn.Param { return nil }

// ExitCost returns the inference MACs of exit k for the given single-sample
// input shape.
func (m *MultiClassifier) ExitCost(k int, inShape []int) int64 {
	var p cost.Profile
	prefix := &nn.Sequential{Layers: m.Backbone.Layers[:m.Taps[k]]}
	pp, out := cost.Measure(prefix, inShape, 1)
	p.Add(pp)
	hp, _ := cost.Measure(m.Heads[k], out, 1)
	p.Add(hp)
	return p.MACs
}

// TrainStep performs one joint training step: a single forward through the
// backbone with per-head losses, gradients accumulated backwards so every
// backbone layer is traversed exactly once, then an optimizer update.
// It returns the per-head losses. It is not a slicing.Trainer step because
// the heads share one joint backward through the backbone.
func (m *MultiClassifier) TrainStep(ctx *nn.Context, b train.Batch, opt *train.SGD) []float64 {
	k := len(m.Heads)
	losses := make([]float64, k)
	headGrads := make([]*tensor.Tensor, k)
	// Forward through backbone segments, branching into each head.
	h := b.X
	prev := 0
	for i := 0; i < k; i++ {
		for _, l := range m.Backbone.Layers[prev:m.Taps[i]] {
			h = l.Forward(ctx, h)
		}
		prev = m.Taps[i]
		logits := m.Heads[i].Forward(ctx, h)
		loss, dy := nn.SoftmaxCrossEntropy(ctx.Arena, logits, b.Labels)
		w := 1.0 / float64(k)
		if m.Weights != nil {
			w = m.Weights[i]
		}
		losses[i] = loss
		dy.Scale(w)
		headGrads[i] = m.Heads[i].Backward(ctx, dy)
	}
	// Backward through the segments in reverse, summing head gradients.
	g := headGrads[k-1]
	for i := k - 2; i >= 0; i-- {
		g = m.Backbone.BackwardRange(ctx, g, m.Taps[i], m.Taps[i+1])
		g.Add(headGrads[i])
	}
	m.Backbone.BackwardRange(ctx, g, 0, m.Taps[0])
	opt.Step(m.Params())
	return losses
}

// Params returns backbone plus head parameters.
func (m *MultiClassifier) Params() []*nn.Param {
	ps := m.Backbone.Params()
	for _, h := range m.Heads {
		ps = append(ps, h.Params()...)
	}
	return ps
}
