package slicing_test

import (
	"math/rand"
	"testing"

	"modelslicing/internal/demo"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// TestDemoModelTierAccuracyDelta is the end-to-end accuracy-budget check on
// a real trained model: serving the demo MLP on the fma tier must not move
// test-set predictions — it must agree with the exact tier on every argmax.
func TestDemoModelTierAccuracyDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the demo model")
	}
	rng := rand.New(rand.NewSource(703))
	m := demo.TrainMLP(0.25, 4, 2, rng)
	rates := m.Rates

	const n = 256
	x := tensor.New(n, demo.Features)
	for i := 0; i < n; i++ {
		copy(x.Data[i*demo.Features:(i+1)*demo.Features], m.Sample(rng).Data)
	}
	argmax := func(row []float64) int {
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		return best
	}

	shared := slicing.NewShared(m.Net, rates)
	for _, r := range rates {
		shared.SetTier(tensor.TierExact)
		exact := shared.Infer(r, x, nil)
		for _, tc := range []struct {
			tier     tensor.EngineTier
			maxFlips int
		}{{tensor.TierFMA, 0}} {
			shared.SetTier(tc.tier)
			got := shared.Infer(r, x, nil)
			flips := 0
			for i := 0; i < n; i++ {
				if argmax(got.Data[i*demo.Classes:(i+1)*demo.Classes]) !=
					argmax(exact.Data[i*demo.Classes:(i+1)*demo.Classes]) {
					flips++
				}
			}
			if flips > tc.maxFlips {
				t.Fatalf("tier %v rate %v: %d/%d predictions flipped (max %d)",
					tc.tier, r, flips, n, tc.maxFlips)
			}
		}
	}
}
