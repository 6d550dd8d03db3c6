package serving

import (
	"math"
	"math/rand"
	"time"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// MeasureSampleTimes calibrates the per-sample inference cost t(r) of a
// model at every deployable rate by timing the zero-copy shared-weight path
// (the same path the live server runs, on the default engine tier of
// slicing.NewShared), replacing the r² idealization with measured numbers:
// one warm-up pass per rate, then the best of three timed batches (the
// minimum filters scheduler noise).
//
// The returned function maps any rate to the measurement of its nearest
// list member, in seconds per sample — directly usable as Policy.SampleTime
// or, divided by its r=1 value, as Config.CostRatio.
func MeasureSampleTimes(model nn.Layer, rates slicing.RateList, inShape []int, batch int) func(r float64) float64 {
	shared := slicing.NewShared(model, rates)
	if batch <= 0 {
		batch = 32
	}
	rng := rand.New(rand.NewSource(0))
	x := tensor.New(append([]int{batch}, inShape...)...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	arena := tensor.NewArena()
	times := make(map[float64]float64, len(rates))
	for _, r := range rates {
		shared.Infer(r, x, arena)
		arena.Reset()
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			shared.Infer(r, x, arena)
			arena.Reset()
			if d := time.Since(start).Seconds(); d < best {
				best = d
			}
		}
		times[r] = best / float64(batch)
	}
	return func(r float64) float64 { return times[rates.Nearest(r)] }
}
