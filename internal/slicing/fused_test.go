package slicing

import (
	"math"
	"math/rand"
	"testing"

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
