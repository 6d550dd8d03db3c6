package nn_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/persist"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// TestServingHoldsOnlyParameters pins the serving memory contract: a model
// served at every rate on both engine tiers, from the heap or bound to a
// checkpoint's mapping, holds its parameters and nothing per width — no
// conv keeps a pack of its weight — and no gradient. The first Backward then
// allocates the gradient of every parameter it reaches.
func TestServingHoldsOnlyParameters(t *testing.T) {
	rates := slicing.NewRateList(0.25, 4)
	cfg := models.VGG13Mini(4, models.NormGroup, 1)
	rng := rand.New(rand.NewSource(48))
	heap, _ := models.NewVGG(cfg, rng)
	path := filepath.Join(t.TempDir(), "vgg.ckpt")
	if err := persist.Save(path, heap.Params()); err != nil {
		t.Fatal(err)
	}
	ckpt, err := persist.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	bound, _ := models.NewVGG(cfg, rand.New(rand.NewSource(49)))
	if err := ckpt.Bind(bound.Params()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, tc := range []struct {
		name  string
		model nn.Layer
	}{{"heap", heap}, {"checkpoint", bound}} {
		shared := slicing.NewShared(tc.model, rates)
		arena := tensor.NewArena()
		for _, tier := range []tensor.EngineTier{tensor.TierExact, tensor.TierFMA} {
			shared.SetTier(tier)
			for _, r := range rates {
				shared.Infer(r, x, arena)
				arena.Reset()
			}
		}
		if b := nn.PackCacheBytes(tc.model); b != 0 {
			t.Errorf("%s: served model holds %d pack bytes, want 0", tc.name, b)
		}
		for _, p := range tc.model.Params() {
			if nn.HasGrad(p) {
				t.Errorf("%s: serving allocated the gradient of %s", tc.name, p.Name)
			}
		}
	}

	ctx := nn.Train(1, rng)
	y := heap.Forward(ctx, x)
	dy := tensor.New(y.Shape...)
	dy.Fill(1)
	heap.Backward(ctx, dy)
	for _, p := range heap.Params() {
		if !nn.HasGrad(p) {
			t.Errorf("Backward left the gradient of %s unallocated", p.Name)
		}
	}
}
