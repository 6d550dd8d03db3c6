// Package cost implements the inference cost model of the paper: per-layer
// multiply-accumulate counts (the "FLOPs in MUL-ADD" of Figures 2 and 5) and
// parameter counts, both as a function of the slice rate. These back the Ct
// (computation) and Mt (model size) columns of Tables 2 and 4 and the
// Equation-3 budget-to-rate resolution.
package cost

import (
	"fmt"

	"modelslicing/internal/nn"
)

// Profile is the aggregate cost of one inference pass for a single sample
// (or a single sequence, for recurrent models).
type Profile struct {
	// MACs counts multiply-accumulate operations.
	MACs int64
	// Params counts the parameters that must reside in memory at this rate.
	Params int64
	// Activations counts output elements across layers — a proxy for
	// run-time activation memory.
	Activations int64
}

// Add accumulates another profile.
func (p *Profile) Add(o Profile) {
	p.MACs += o.MACs
	p.Params += o.Params
	p.Activations += o.Activations
}

// Measure walks the layer tree and returns the cost profile of one forward
// pass at slice rate r, for the given single-sample input shape (without the
// batch dimension for images — e.g. [3, 32, 32] — or [T] for token inputs).
// The returned shape is the layer tree's output shape.
func Measure(layer nn.Layer, inShape []int, r float64) (Profile, []int) {
	var p Profile
	out := walk(layer, inShape, r, &p)
	return p, out
}

// FLOPs returns MACs at rate r as a float (convenience for budget math).
func FLOPs(layer nn.Layer, inShape []int, r float64) float64 {
	p, _ := Measure(layer, inShape, r)
	return float64(p.MACs)
}

func prod(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

func walk(layer nn.Layer, in []int, r float64, p *Profile) []int {
	switch l := layer.(type) {
	case *nn.Sequential:
		for _, inner := range l.Layers {
			in = walk(inner, in, r, p)
		}
		return in

	case *nn.Residual:
		out := walk(l.Body, in, r, p)
		if l.Short != nil {
			walk(l.Short, in, r, p)
		}
		return out

	case *nn.Dense:
		aIn, aOut := l.Active(r)
		rows := int64(1)
		if len(in) == 2 { // [rows, features] e.g. after TimeFlatten
			rows = int64(in[0])
		}
		p.MACs += rows * int64(aIn) * int64(aOut)
		p.Params += int64(aIn) * int64(aOut)
		if l.B != nil {
			p.Params += int64(aOut)
		}
		out := []int{aOut}
		if len(in) == 2 {
			out = []int{in[0], aOut}
		}
		p.Activations += prod(out)
		return out

	case *nn.Conv2D:
		aIn, aOut := l.Active(r)
		if len(in) != 3 {
			panic(fmt.Sprintf("cost: Conv2D input shape %v, want [C H W]", in))
		}
		oh, ow := l.OutShape(in[1], in[2])
		p.MACs += int64(l.KH*l.KW) * int64(aIn) * int64(aOut) * int64(oh*ow)
		p.Params += int64(aOut) * int64(aIn) * int64(l.KH*l.KW)
		if l.B != nil {
			p.Params += int64(aOut)
		}
		out := []int{aOut, oh, ow}
		p.Activations += prod(out)
		return out

	case *nn.GroupNorm:
		aC := l.Spec.Active(r, l.C)
		p.Params += 2 * int64(aC)
		p.Activations += prod(in)
		return in

	case *nn.BatchNorm:
		aC := l.Spec.Active(r, l.C)
		p.Params += 2 * int64(aC)
		p.Activations += prod(in)
		return in

	case *nn.SwitchableBatchNorm:
		// One BN is active per deployed width; its cost is what matters for
		// a deployed subnet.
		return walk(l.BNs[0], in, r, p)

	case gateBlocks:
		// G gate blocks of x- and h-side products per step, and the biases.
		aIn, aH := l.Active(r)
		g, nb := l.Blocks()
		steps := int64(1)
		if len(in) == 2 { // [T, features]
			steps = int64(in[0])
		}
		gates, in64, h64 := int64(g), int64(aIn), int64(aH)
		p.MACs += steps * gates * (in64*h64 + h64*h64)
		p.Params += gates * (in64*h64 + h64*h64 + int64(nb)*h64)
		out := []int{aH}
		if len(in) == 2 {
			out = []int{in[0], aH}
		}
		p.Activations += prod(out)
		return out

	case *nn.Embedding:
		// Input [T] token ids → output [T, E]; a lookup costs no MACs.
		p.Params += int64(l.V) * int64(l.E)
		out := append(append([]int(nil), in...), l.E)
		p.Activations += prod(out)
		return out

	case *nn.MaxPool2D:
		if len(in) != 3 {
			panic(fmt.Sprintf("cost: MaxPool2D input shape %v, want [C H W]", in))
		}
		oh := (in[1]-l.K)/l.Stride + 1
		ow := (in[2]-l.K)/l.Stride + 1
		out := []int{in[0], oh, ow}
		p.Activations += prod(out)
		return out

	case *nn.GlobalAvgPool:
		out := []int{in[0]}
		p.Activations += prod(out)
		return out

	case *nn.Flatten:
		return []int{int(prod(in))}

	case *nn.TimeFlatten:
		// [T, H] stays [T, H] in per-sample shape terms.
		return in

	case *nn.ReLU, *nn.Dropout:
		return in

	default:
		panic(fmt.Sprintf("cost: Measure does not support layer type %T", layer))
	}
}

// Ratio returns cost(r)/cost(1) for the model — the Ct column of Tables 2
// and 4. For models sliced on both dimensions this is ≈ r².
func Ratio(layer nn.Layer, inShape []int, r float64) float64 {
	full := FLOPs(layer, inShape, 1)
	if full == 0 {
		return 0
	}
	return FLOPs(layer, inShape, r) / full
}

// ParamRatio returns params(r)/params(1) — the Mt column of Table 4.
func ParamRatio(layer nn.Layer, inShape []int, r float64) float64 {
	pf, _ := Measure(layer, inShape, 1)
	pr, _ := Measure(layer, inShape, r)
	if pf.Params == 0 {
		return 0
	}
	return float64(pr.Params) / float64(pf.Params)
}

// gateBlocks is a recurrent layer (LSTM, GRU or RNN) seen through the core
// the three share: G stacked gate blocks over the active (input, hidden)
// widths, and the number of G·Hidden bias vectors.
type gateBlocks interface {
	Active(r float64) (aIn, aH int)
	Blocks() (gates, biases int)
}
