// Package train provides optimizers, learning-rate schedules, evaluation
// metrics and training-history recording shared by the conventional and
// model-slicing training loops.
package train

import (
	"math"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// Batch is one mini-batch of supervised data. X is the model input (images
// [B,C,H,W] or token ids [T,B]); Labels are the target class indices aligned
// with the rows of the model's logits output.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// SGD is stochastic gradient descent with momentum and decoupled-style L2
// weight decay (decay added to the gradient, the classic formulation used by
// the paper's training recipes).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Nesterov enables Nesterov momentum.
	Nesterov bool

	vel map[*nn.Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		vel: make(map[*nn.Param]*tensor.Tensor)}
}

// Step applies one update to every parameter from its accumulated gradient
// and zeroes the gradients, in one pass over each parameter's elements:
// g ← g + λ·w (weight decay, Decay parameters only), then with momentum
// v ← μ·v + g and w ← w − lr·v (Nesterov: w ← w − lr·(g + μ·v)), without
// it w ← w − lr·g, then g ← 0. Each product is rounded on its own (the
// float64 conversions keep a target with FMA from contracting it), so the
// result is that of the same steps taken one full pass at a time. With
// momentum, decay and no decay each have a loop of their own: the decay
// test inside the loop cost about a third of the pass.
func (s *SGD) Step(params []*nn.Param) {
	lr, mu := s.LR, s.Momentum
	for _, p := range params {
		w := p.Value.Data
		g := p.Grad.Data[:len(w)]
		wd := 0.0
		if p.Decay {
			wd = s.WeightDecay
		}
		if mu == 0 {
			for i, gi := range g {
				if wd != 0 {
					gi += float64(wd * w[i])
				}
				w[i] -= float64(lr * gi)
				g[i] = 0
			}
			continue
		}
		vt, ok := s.vel[p]
		if !ok {
			vt = tensor.New(p.Value.Shape...)
			s.vel[p] = vt
		}
		v := vt.Data[:len(w)]
		if wd == 0 {
			for i, gi := range g {
				vi := float64(mu*v[i]) + gi
				v[i] = vi
				if s.Nesterov {
					vi = gi + float64(mu*vi)
				}
				w[i] -= float64(lr * vi)
				g[i] = 0
			}
			continue
		}
		for i, gi := range g {
			gi += float64(wd * w[i])
			vi := float64(mu*v[i]) + gi
			v[i] = vi
			if s.Nesterov {
				vi = gi + float64(mu*vi)
			}
			w[i] -= float64(lr * vi)
			g[i] = 0
		}
	}
}

// ZeroGrad clears all parameter gradients.
func ZeroGrad(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, and returns the pre-clip norm. Standard for LSTM language
// models (the NNLM experiments).
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, v := range p.Grad.Data {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
