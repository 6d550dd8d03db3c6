package nn_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

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

// TestVGG13PaperFootprint measures the chunked trunk at the paper's widths:
// Table 3's VGG-13 (32×32 input, batch 8, random weights) served through the
// fused view at r = 1 and r = 0.25 with its trunk chunked, one sample a chunk
// at these widths, and whole. It logs each arm's arena footprint and pass
// time, and holds the chunked pass to the whole one's bits and to a smaller
// arena. It takes seconds, so -short skips it.
func TestVGG13PaperFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-width passes take seconds")
	}
	rng := rand.New(rand.NewSource(50))
	model, _ := models.NewVGG(models.VGG13Paper(), rng)
	fused := nn.Fuse(model).(*nn.Sequential)
	x := tensor.New(8, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range []float64{1, 0.25} {
		var outs [2][]float64
		var bytes [2]int
		for i, arm := range []*nn.Sequential{fused, nn.Unchunked(fused)} {
			arena := tensor.NewArena()
			ctx := &nn.Context{Rate: r, Tier: tensor.TierExact, Arena: arena}
			arm.Infer(ctx, x)
			arena.Reset()
			start := time.Now()
			outs[i] = slices.Clone(arm.Infer(ctx, x).Data)
			elapsed := time.Since(start)
			arena.Reset()
			bytes[i] = 8 * arena.Footprint()
			t.Logf("r=%v %s: arena %d KiB, pass %v", r, [2]string{"chunked", "whole"}[i], bytes[i]/1024, elapsed.Round(time.Millisecond))
		}
		for j, v := range outs[1] {
			if math.Float64bits(outs[0][j]) != math.Float64bits(v) {
				t.Fatalf("r=%v: chunked [%d]=%v, whole %v", r, j, outs[0][j], v)
			}
		}
		if bytes[0] >= bytes[1] {
			t.Fatalf("r=%v: chunked arena %d bytes, not below the whole pass's %d", r, bytes[0], bytes[1])
		}
	}
}
