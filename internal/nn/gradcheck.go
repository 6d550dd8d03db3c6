package nn

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/tensor"
)

// CheckGradients verifies a layer's analytic gradients against central-
// difference numerical gradients, for both parameters and the layer input.
//
// The scalar objective is a fixed random linear functional of the output,
// loss = Σᵢ wᵢ·yᵢ, which exercises every output position. before, when
// non-nil, runs before every forward pass (used to reseed RNG-dependent
// layers such as Dropout so repeated forwards are deterministic).
// maxPerTensor bounds the number of elements probed per tensor (spread
// evenly); pass 0 to probe every element.
//
// It returns nil if all probed gradients match within a relative tolerance
// of 1e-5, and a descriptive error on the first mismatch otherwise.
func CheckGradients(layer Layer, ctx *Context, x *tensor.Tensor, before func(), maxPerTensor int) error {
	const (
		eps = 1e-6
		tol = 1e-5
	)
	run := func() *tensor.Tensor {
		if before != nil {
			before()
		}
		return layer.Forward(ctx, x)
	}
	y0 := run()
	w := tensor.New(y0.Shape...)
	wrng := rand.New(rand.NewSource(7))
	for i := range w.Data {
		w.Data[i] = wrng.NormFloat64()
	}
	lossOf := func(y *tensor.Tensor) float64 {
		s := 0.0
		for i, v := range y.Data {
			s += v * w.Data[i]
		}
		return s
	}

	// Analytic gradients.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx := layer.Backward(ctx, w)

	l0 := lossOf(run())
	probe := func(name string, value []float64, grad []float64) error {
		n := len(value)
		step := 1
		if maxPerTensor > 0 && n > maxPerTensor {
			step = n / maxPerTensor
		}
		for i := 0; i < n; i += step {
			orig := value[i]
			h := eps * (1 + math.Abs(orig))
			value[i] = orig + h
			lp := lossOf(run())
			value[i] = orig - h
			lm := lossOf(run())
			value[i] = orig
			num := (lp - lm) / (2 * h)
			ana := grad[i]
			if diff := math.Abs(num - ana); diff > tol*(1+math.Abs(num)+math.Abs(ana)) {
				// Distinguish a real gradient bug from a kink crossing
				// (ReLU/max-pool argmax flip within ±h): at a kink the two
				// one-sided derivatives disagree with each other, so the
				// central difference is meaningless for this coordinate.
				fwd := (lp - l0) / h
				bwd := (l0 - lm) / h
				if math.Abs(fwd-bwd) > 10*tol*(1+math.Abs(fwd)+math.Abs(bwd)) {
					continue
				}
				return fmt.Errorf("gradient mismatch in %s[%d]: analytic %.8g vs numeric %.8g (|Δ|=%.3g)",
					name, i, ana, num, diff)
			}
		}
		return nil
	}

	for _, p := range layer.Params() {
		if err := probe(p.Name, p.Value.Data, p.Grad().Data); err != nil {
			return err
		}
	}
	if dx != nil {
		if !dx.SameShape(x) {
			return fmt.Errorf("input gradient shape %v does not match input %v", dx.Shape, x.Shape)
		}
		if err := probe("input", x.Data, dx.Data); err != nil {
			return err
		}
	}
	// Re-run the original forward so cached state matches x again.
	run()
	return nil
}
