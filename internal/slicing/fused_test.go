package slicing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// TestSharedFusedMatchesUnfusedOracle is the end-to-end equivalence bound of
// the fused serving path: for every model family and every deployable rate,
// Shared.Infer (peephole-fused: epilogue GEMMs, folded BatchNorm, fused
// activations, per-sample conv lowering) must agree with the unfused layer
// graph (Shared.InferUnfused) to ≤1e-12.
func TestSharedFusedMatchesUnfusedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	rates := NewRateList(0.25, 4)

	// Conv→SwitchableBatchNorm→ReLU stack with trained per-width statistics:
	// the case where folding actually changes the arithmetic path.
	sbnNet := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewSwitchableBatchNorm(8, nn.Sliced(4), len(rates)),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(8, 8, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewSwitchableBatchNorm(8, nn.Sliced(4), len(rates)),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	for i, r := range rates {
		ctx := &nn.Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}
		sbnNet.Forward(ctx, randInput(rng, 4, 3, 8, 8))
	}

	cases := []struct {
		name  string
		model nn.Layer
		input func() *tensor.Tensor
	}{
		{"cnn-groupnorm", miniCNN(rng), func() *tensor.Tensor { return randInput(rng, 3, 3, 8, 8) }},
		{"cnn-switchable-bn", sbnNet, func() *tensor.Tensor { return randInput(rng, 3, 3, 8, 8) }},
	}
	for _, tc := range cases {
		shared := NewShared(tc.model, rates)
		shared.SetTier(tensor.TierExact) // the 1e-12 fusion oracle assumes the exact tier
		arena := tensor.NewArena()
		oracleArena := tensor.NewArena()
		for _, r := range rates {
			x := tc.input()
			got := shared.Infer(r, x, arena)
			want := shared.InferUnfused(r, x, oracleArena)
			if !got.SameShape(want) {
				t.Fatalf("%s rate %v: fused shape %v, unfused %v", tc.name, r, got.Shape, want.Shape)
			}
			for i := range want.Data {
				if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12 {
					t.Fatalf("%s rate %v: fused path differs at %d: %v vs %v (|Δ|=%g)",
						tc.name, r, i, got.Data[i], want.Data[i], d)
				}
			}
			arena.Reset()
			oracleArena.Reset()
		}
	}
}

// TestSharedFusedAllocsFree pins the serving acceptance criterion: the fused
// zero-copy path stays allocation-free in steady state under an arena.
func TestSharedFusedAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	rates := NewRateList(0.25, 4)
	shared := NewShared(miniCNN(rng), rates)
	arena := tensor.NewArena()
	x := randInput(rng, 4, 3, 8, 8)
	pass := func() {
		shared.Infer(1, x, arena)
		arena.Reset()
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(50, pass); allocs > 0 {
		t.Fatalf("fused Shared.Infer allocates %v times per pass, want 0", allocs)
	}
}

// TestSharedFusedGroupNormBitIdentical holds the GroupNorm models to their
// unfused graphs bit for bit: on VGG13Mini-GN and ResNetMini-GN every same
// Conv→GroupNorm→ReLU is served on the conv's product grid, and Shared.Infer
// must equal Shared.InferUnfused at every rate. Several goroutines call one
// Shared, each on its own arenas, so a -race run checks the shared packs.
func TestSharedFusedGroupNormBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	rates := NewRateList(0.25, 4)
	vgg, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	for _, l := range nn.Fuse(vgg).(*nn.Sequential).Layers {
		switch l.(type) {
		case *nn.GroupNorm, *nn.FusedNormAct:
			t.Fatalf("VGG13Mini-GN fused view keeps a %T: a Conv→GroupNorm→ReLU missed the grid pass", l)
		}
	}
	resnet, _ := models.NewResNet(models.ResNetMini(4, models.NormGroup, 1), rng)
	for _, tc := range []struct {
		name  string
		model *nn.Sequential
	}{{"vgg13mini-gn", vgg}, {"resnetmini-gn", resnet}} {
		for _, p := range tc.model.Params() {
			if p.Name == "gn.gamma" || p.Name == "gn.beta" {
				tensor.InitNormal(p.Value, 1, rng)
			}
		}
		shared := NewShared(tc.model, rates)
		shared.SetTier(tensor.TierExact)
		const workers = 3
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			x := randInput(rng, 3+4*w, 3, 16, 16) // batches 3, 7 and 11
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- sharedMatchesUnfused(shared, rates, x)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// sharedMatchesUnfused runs two rounds of every rate through Shared.Infer
// and Shared.InferUnfused on arenas of its own and reports the first
// element where they differ.
func sharedMatchesUnfused(shared *Shared, rates RateList, x *tensor.Tensor) error {
	arena, oracle := tensor.NewArena(), tensor.NewArena()
	for round := 0; round < 2; round++ {
		for _, r := range rates {
			got := shared.Infer(r, x, arena)
			want := shared.InferUnfused(r, x, oracle)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					return fmt.Errorf("batch %d rate %v: fused[%d]=%v, unfused %v", x.Dim(0), r, i, got.Data[i], v)
				}
			}
			arena.Reset()
			oracle.Reset()
		}
	}
	return nil
}
