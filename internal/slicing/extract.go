package slicing

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/nn"
)

// Extract builds a standalone copy of the sub-network at slice rate r: a
// model whose full width equals the parent's active width, with the prefix
// weights copied (and any rescale factors baked into the weights). The
// extracted subnet computes exactly the same function as the parent sliced
// at r, but its parameter and run-time memory footprint is that of the small
// model — the deployment story of Section 3.1 ("a subnet can be readily
// sliced and deployed out of the network trained with model slicing").
//
// Extract is the deployment-export path: use it to ship a small standalone
// model. For serving many rates live from one process, Shared provides the
// same outputs zero-copy from the parent's weight buffers.
//
// rates supplies the width index for layers with per-width state
// (SwitchableBatchNorm). Extract panics on layer types it does not know.
func Extract(layer nn.Layer, r float64, rates RateList) nn.Layer {
	// The extractor never uses randomness; initializers run on throwaway
	// buffers that are immediately overwritten.
	rng := rand.New(rand.NewSource(0))
	switch l := layer.(type) {
	case *nn.Sequential:
		out := &nn.Sequential{}
		for _, inner := range l.Layers {
			out.Layers = append(out.Layers, Extract(inner, r, rates))
		}
		return out

	case *nn.Residual:
		var short nn.Layer
		if l.Short != nil {
			short = Extract(l.Short, r, rates)
		}
		return nn.NewResidual(Extract(l.Body, r, rates), short)

	case *nn.Dense:
		aIn, aOut := l.Active(r)
		d := nn.NewDense(aIn, aOut, nn.Fixed(), nn.Fixed(), l.B != nil, rng)
		scale := 1.0
		if l.Rescale && aIn < l.In {
			scale = float64(l.In) / float64(aIn)
		}
		for o := 0; o < aOut; o++ {
			src := l.W.Value.Row(o)[:aIn]
			dst := d.W.Value.Row(o)
			for j, v := range src {
				dst[j] = v * scale
			}
			if l.B != nil {
				d.B.Value.Data[o] = l.B.Value.Data[o]
			}
		}
		return d

	case *nn.Conv2D:
		aIn, aOut := l.Active(r)
		c := nn.NewConv2D(aIn, aOut, l.KH, l.KW, l.Stride, l.Pad, nn.Fixed(), nn.Fixed(), l.B != nil, rng)
		cols := aIn * l.KH * l.KW
		for o := 0; o < aOut; o++ {
			copy(c.W.Value.Row(o), l.W.Value.Row(o)[:cols])
			if l.B != nil {
				c.B.Value.Data[o] = l.B.Value.Data[o]
			}
		}
		return c

	case *nn.GroupNorm:
		aC := l.Spec.Active(r, l.C)
		gs := l.C / l.NormGroups
		g := nn.NewGroupNorm(aC, aC/gs, nn.Fixed(), l.Eps)
		copy(g.Gamma.Value.Data, l.Gamma.Value.Data[:aC])
		copy(g.Beta.Value.Data, l.Beta.Value.Data[:aC])
		return g

	case *nn.BatchNorm:
		aC := l.Spec.Active(r, l.C)
		b := nn.NewBatchNorm(aC, nn.Fixed())
		b.Eps, b.Momentum = l.Eps, l.Momentum
		copy(b.Gamma.Value.Data, l.Gamma.Value.Data[:aC])
		copy(b.Beta.Value.Data, l.Beta.Value.Data[:aC])
		copy(b.RunMean.Data, l.RunMean.Data[:aC])
		copy(b.RunVar.Data, l.RunVar.Data[:aC])
		return b

	case *nn.SwitchableBatchNorm:
		idx := rates.MustIndex(rates.Nearest(r))
		return Extract(l.BNs[idx], r, rates)

	case extractor:
		return l.Extract(r)

	case *nn.Embedding:
		out := nn.NewEmbedding(l.V, l.E, rng)
		copy(out.W.Value.Data, l.W.Value.Data)
		return out

	case *nn.ReLU:
		return nn.NewReLU()
	case *nn.Dropout:
		return nn.NewDropout(l.P)
	case *nn.MaxPool2D:
		return nn.NewMaxPool2D(l.K, l.Stride)
	case *nn.GlobalAvgPool:
		return nn.NewGlobalAvgPool()
	case *nn.Flatten:
		return nn.NewFlatten()
	case *nn.TimeFlatten:
		return nn.NewTimeFlatten()

	default:
		panic(fmt.Sprintf("slicing: Extract does not support layer type %T", layer))
	}
}

// extractor is a layer that builds its own fixed-width copy: the recurrent
// cells, whose shared core knows their gate-block layout.
type extractor interface {
	Extract(r float64) nn.Layer
}
