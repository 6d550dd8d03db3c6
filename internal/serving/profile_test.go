package serving

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
)

// TestMeasureSampleTimesCoversEveryRate calibrates a tiny MLP: every
// deployable rate gets a positive, finite per-sample time, and a rate off
// the list reads the measurement of its nearest member.
func TestMeasureSampleTimesCoversEveryRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewDense(16, 32, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(32, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	rates := slicing.NewRateList(0.25, 4)
	sampleTime := MeasureSampleTimes(model, rates, []int{16}, 8)
	for _, r := range rates {
		if v := sampleTime(r); !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("t(%v) = %v, want positive and finite", r, v)
		}
	}
	for _, off := range []float64{0.3, 0.6, 0.9} {
		near := rates.Nearest(off)
		if off == near {
			t.Fatalf("%v is a list member; the check needs an off-list rate", off)
		}
		if got, want := sampleTime(off), sampleTime(near); got != want {
			t.Fatalf("t(%v) = %v, want t(%v) = %v", off, got, near, want)
		}
	}
}
