package slicing

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// TestSharedHandoffMatchesLayerWalk holds the exact-tier served pass, which
// runs the fused view's handoff edges (each producer writing straight into
// the next conv's padded image), to the per-layer walk of the same fused
// layers, each Layer.Infer dense in and out: bit for bit at every deployed
// rate and at batches 1, 3, 8 and 11 (short last sample groups on the 8×8
// and 4×4 planes). VGG13Mini-GN hands over on the grid pass and the pool,
// the Slimmable VGG13Mini (SwitchableBatchNorm, folded per width) on the
// copy-out and the pool, and ResNetMini's residual bodies run the nested
// Sequentials the same way.
func TestSharedHandoffMatchesLayerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(620))
	rates := NewRateList(0.25, 4)
	vgg, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	slim, _ := models.NewVGG(models.VGG13Mini(4, models.NormSwitchable, len(rates)), rng)
	// One training pass per width gives every width its own running
	// statistics, so a fold at the wrong width shows.
	for i, r := range rates {
		slim.Forward(&nn.Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}, randInput(rng, 4, 3, 16, 16))
	}
	resnet, _ := models.NewResNet(models.ResNetMini(4, models.NormGroup, 1), rng)
	for _, tc := range []struct {
		name  string
		model nn.Layer
	}{{"vgg13mini-gn", vgg}, {"vgg13mini-slimmable", slim}, {"resnetmini", resnet}} {
		shared := NewShared(tc.model, rates)
		shared.SetTier(tensor.TierExact)
		layers := nn.Fuse(tc.model).(*nn.Sequential).Layers
		arena := tensor.NewArena()
		for _, batch := range []int{1, 3, 8, 11} {
			x := randInput(rng, batch, 3, 16, 16)
			for i, r := range rates {
				walk := x
				ctx := &nn.Context{Rate: r, WidthIdx: i, Arena: arena}
				for _, l := range layers {
					walk = nn.Infer(l, ctx, walk)
				}
				want := walk.Clone()
				got := shared.Infer(r, x, arena)
				if !got.SameShape(want) {
					t.Fatalf("%s batch %d rate %v: served shape %v, walk %v", tc.name, batch, r, got.Shape, want.Shape)
				}
				for j, v := range want.Data {
					if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
						t.Fatalf("%s batch %d rate %v: served[%d]=%v, walk %v", tc.name, batch, r, j, got.Data[j], v)
					}
				}
				arena.Reset()
			}
		}
	}
}
