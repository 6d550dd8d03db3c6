package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"modelslicing/internal/nn"
)

// This file implements Network-Slimming-style width compression (Liu et al.,
// 2017), the "ResNet with Width Compression" baseline of Figure 2: train
// with an L1 penalty on the normalization scale factors γ, prune the
// channels with the smallest |γ|, then fine-tune. Pruning is exact for
// BatchNorm models (each channel is normalized independently), so the
// slimming baselines are built with models.NormBatch.

// L1GammaPenalty adds λ·sign(γ) to the gradient of every normalization
// scale parameter in the layer tree — the sparsity-inducing term of network
// slimming. Call between Backward and the optimizer step.
func L1GammaPenalty(layer nn.Layer, lambda float64) {
	switch l := layer.(type) {
	case *nn.Sequential:
		for _, inner := range l.Layers {
			L1GammaPenalty(inner, lambda)
		}
	case *nn.Residual:
		L1GammaPenalty(l.Body, lambda)
		if l.Short != nil {
			L1GammaPenalty(l.Short, lambda)
		}
	case *nn.BatchNorm:
		addSign(l.Gamma, lambda)
	case *nn.GroupNorm:
		addSign(l.Gamma, lambda)
	case *nn.SwitchableBatchNorm:
		for _, b := range l.BNs {
			addSign(b.Gamma, lambda)
		}
	}
}

func addSign(p *nn.Param, lambda float64) {
	g := p.Grad().Data
	for i, v := range p.Value.Data {
		switch {
		case v > 0:
			g[i] += lambda
		case v < 0:
			g[i] -= lambda
		}
	}
}

// topChannels returns the indices (ascending) of the keep·n channels with
// the largest |γ|, keeping at least one.
func topChannels(gamma []float64, keepFrac float64) []int {
	n := len(gamma)
	keep := int(math.Round(keepFrac * float64(n)))
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(gamma[idx[a]]) > math.Abs(gamma[idx[b]])
	})
	kept := append([]int(nil), idx[:keep]...)
	sort.Ints(kept)
	return kept
}

// gatherConv builds a convolution whose output channels are outIdx and input
// channels inIdx of the source (nil index slices mean "all channels").
func gatherConv(src *nn.Conv2D, inIdx, outIdx []int, rng *rand.Rand) *nn.Conv2D {
	if inIdx == nil {
		inIdx = allIdx(src.In)
	}
	if outIdx == nil {
		outIdx = allIdx(src.Out)
	}
	dst := nn.NewConv2D(len(inIdx), len(outIdx), src.KH, src.KW, src.Stride, src.Pad,
		nn.Fixed(), nn.Fixed(), src.B != nil, rng)
	kk := src.KH * src.KW
	for o, so := range outIdx {
		srcRow := src.W.Value.Row(so)
		dstRow := dst.W.Value.Row(o)
		for i, si := range inIdx {
			copy(dstRow[i*kk:(i+1)*kk], srcRow[si*kk:(si+1)*kk])
		}
		if src.B != nil {
			dst.B.Value.Data[o] = src.B.Value.Data[so]
		}
	}
	return dst
}

// gatherBN builds a BatchNorm restricted to the kept channels, preserving
// affine parameters and running statistics (pruning is exact).
func gatherBN(src *nn.BatchNorm, idx []int) *nn.BatchNorm {
	dst := nn.NewBatchNorm(len(idx), nn.Fixed())
	dst.Eps, dst.Momentum = src.Eps, src.Momentum
	for i, si := range idx {
		dst.Gamma.Value.Data[i] = src.Gamma.Value.Data[si]
		dst.Beta.Value.Data[i] = src.Beta.Value.Data[si]
		dst.RunMean.Data[i] = src.RunMean.Data[si]
		dst.RunVar.Data[i] = src.RunVar.Data[si]
	}
	return dst
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// PruneVGG compresses a trained VGG-style chain (Conv2D → BatchNorm → ReLU
// [→ MaxPool], ending GlobalAvgPool → Dense) to keepFrac of each layer's
// channels, ranked by |γ|. The returned network requires fine-tuning to
// recover accuracy, as in the original method.
func PruneVGG(model *nn.Sequential, keepFrac float64, rng *rand.Rand) *nn.Sequential {
	out := &nn.Sequential{}
	var keepIn []int // nil = network input (all channels)
	i := 0
	for i < len(model.Layers) {
		switch l := model.Layers[i].(type) {
		case *nn.Conv2D:
			bn, ok := model.Layers[i+1].(*nn.BatchNorm)
			if !ok {
				panic(fmt.Sprintf("baselines: PruneVGG expects BatchNorm after conv at layer %d, found %T (build the model with models.NormBatch)", i, model.Layers[i+1]))
			}
			keepOut := topChannels(bn.Gamma.Value.Data, keepFrac)
			out.Layers = append(out.Layers,
				gatherConv(l, keepIn, keepOut, rng),
				gatherBN(bn, keepOut),
			)
			keepIn = keepOut
			i += 2
		case *nn.Dense:
			// Classifier: gather input features (post global-avg-pool the
			// feature index equals the channel index).
			idx := keepIn
			if idx == nil {
				idx = allIdx(l.In)
			}
			d := nn.NewDense(len(idx), l.Out, nn.Fixed(), nn.Fixed(), l.B != nil, rng)
			for o := 0; o < l.Out; o++ {
				for j, sj := range idx {
					d.W.Value.Set(l.W.Value.At(o, sj), o, j)
				}
				if l.B != nil {
					d.B.Value.Data[o] = l.B.Value.Data[o]
				}
			}
			out.Layers = append(out.Layers, d)
			i++
		case *nn.ReLU:
			out.Layers = append(out.Layers, nn.NewReLU())
			i++
		case *nn.MaxPool2D:
			out.Layers = append(out.Layers, nn.NewMaxPool2D(l.K, l.Stride))
			i++
		case *nn.GlobalAvgPool:
			out.Layers = append(out.Layers, nn.NewGlobalAvgPool())
			i++
		case *nn.Flatten:
			panic("baselines: PruneVGG supports global-average-pool heads only")
		default:
			panic(fmt.Sprintf("baselines: PruneVGG cannot handle layer %T", l))
		}
	}
	return out
}

// PruneResNet compresses a trained pre-activation bottleneck ResNet by
// pruning the two internal bottleneck dimensions of every block (the
// channels whose removal does not disturb the residual identity paths),
// ranked by the |γ| of the normalization layer that consumes them. Stem,
// block inputs/outputs, shortcuts and the classifier are preserved.
func PruneResNet(model *nn.Sequential, keepFrac float64, rng *rand.Rand) *nn.Sequential {
	out := &nn.Sequential{}
	for _, layer := range model.Layers {
		res, ok := layer.(*nn.Residual)
		if !ok {
			out.Layers = append(out.Layers, layer)
			continue
		}
		body, ok := res.Body.(*nn.Sequential)
		if !ok || len(body.Layers) != 9 {
			out.Layers = append(out.Layers, layer)
			continue
		}
		// Pattern: [norm, relu, conv1, norm, relu, conv3, norm, relu, conv1].
		conv1, ok1 := body.Layers[2].(*nn.Conv2D)
		bn1, okb1 := body.Layers[3].(*nn.BatchNorm)
		conv3, ok3 := body.Layers[5].(*nn.Conv2D)
		bn2, okb2 := body.Layers[6].(*nn.BatchNorm)
		convL, okL := body.Layers[8].(*nn.Conv2D)
		if !(ok1 && okb1 && ok3 && okb2 && okL) {
			panic("baselines: PruneResNet expects pre-act bottleneck blocks with BatchNorm (build with models.NormBatch)")
		}
		k1 := topChannels(bn1.Gamma.Value.Data, keepFrac)
		k2 := topChannels(bn2.Gamma.Value.Data, keepFrac)
		newBody := nn.NewSequential(
			body.Layers[0], // input norm unchanged
			nn.NewReLU(),
			gatherConv(conv1, nil, k1, rng),
			gatherBN(bn1, k1),
			nn.NewReLU(),
			func() nn.Layer {
				c := gatherConv(conv3, k1, k2, rng)
				return c
			}(),
			gatherBN(bn2, k2),
			nn.NewReLU(),
			gatherConv(convL, k2, nil, rng),
		)
		out.Layers = append(out.Layers, nn.NewResidual(newBody, res.Short))
	}
	return out
}
