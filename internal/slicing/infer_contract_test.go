package slicing

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// TestEvaluationKeepsServedPacks: Predict and train.Evaluate run the
// read-only inference pass, so evaluating a model its Shared is serving
// leaves the per-width packs the Shared built in place. (An eval-mode
// Forward would drop every one of them.)
func TestEvaluationKeepsServedPacks(t *testing.T) {
	rng := rand.New(rand.NewSource(610))
	rates := NewRateList(0.25, 4)
	model, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	shared := NewShared(model, rates)
	x := randInput(rng, 8, 3, 16, 16)
	const r = 0.5
	shared.Infer(r, x, nil)
	served := shared.PackCacheBytes()
	if served == 0 {
		t.Fatal("serving built no packs")
	}
	Predict(model, rates, r, x)
	if b := shared.PackCacheBytes(); b != served {
		t.Fatalf("Predict moved the served packs from %d to %d bytes", served, b)
	}
	labels := make([]int, x.Dim(0))
	train.Evaluate(model, r, rates.WidthIdx(r), []train.Batch{{X: x, Labels: labels}})
	if b := shared.PackCacheBytes(); b != served {
		t.Fatalf("Evaluate moved the served packs from %d to %d bytes", served, b)
	}
}

// TestOffListRateSnapsToNearest: a rate that is not in the list is served as
// its nearest member, so the per-width statistics a NormSwitchable model
// normalizes with belong to the width it slices to. At r = 0.6 Shared.Infer,
// Shared.InferUnfused and Predict all equal their r = 0.5 outputs bit for
// bit.
func TestOffListRateSnapsToNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	rates := NewRateList(0.25, 4)
	model, _ := models.NewVGG(models.VGG13Mini(4, models.NormSwitchable, len(rates)), rng)
	// One training pass per width gives every width its own running
	// statistics, so a wrong width index shows in the output.
	for i, r := range rates {
		model.Forward(&nn.Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}, randInput(rng, 4, 3, 16, 16))
	}
	shared := NewShared(model, rates)
	shared.SetTier(tensor.TierExact)
	x := randInput(rng, 2, 3, 16, 16)
	for _, tc := range []struct {
		name  string
		infer func(r float64) *tensor.Tensor
	}{
		{"Shared.Infer", func(r float64) *tensor.Tensor { return shared.Infer(r, x, nil) }},
		{"Shared.InferUnfused", func(r float64) *tensor.Tensor { return shared.InferUnfused(r, x, nil) }},
		{"Predict", func(r float64) *tensor.Tensor { return Predict(model, rates, r, x) }},
	} {
		want, got := tc.infer(0.5), tc.infer(0.6)
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: r=0.6 [%d] = %v, r=0.5 gives %v", tc.name, i, got.Data[i], v)
			}
		}
	}
}
