package slicing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// TestSharedPackedMatchesForwardEndToEnd pins the acceptance bound of the
// persistent-pack path: on the exact tier, Shared.Infer (fused view, packed
// weights) must equal the parent's eval-mode Forward (unfused, never packed)
// bit for bit at every deployable rate. The models cover the shifted-row
// conv with GroupNorm on its grid (miniCNN, VGG13Mini-GN) and a Dense above
// the packing threshold at every rate (the MLP at batch 48).
func TestSharedPackedMatchesForwardEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	rates := NewRateList(0.25, 4)
	vgg, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	mlp := nn.NewSequential(
		nn.NewDense(128, 96, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(96, 10, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	if !tensor.GemmTBPrefersPacked(48, 24, 128) {
		t.Fatal("the MLP's r=0.25 hidden layer is below the packing threshold")
	}
	for _, tc := range []struct {
		name  string
		model nn.Layer
		x     *tensor.Tensor
	}{
		{"minicnn", miniCNN(rng), randInput(rng, 4, 3, 8, 8)},
		{"vgg13mini-gn", vgg, randInput(rng, 3, 3, 16, 16)},
		{"mlp", mlp, randInput(rng, 48, 128)},
	} {
		// Forward drops the packs, so every oracle runs before serving.
		want := make([]*tensor.Tensor, len(rates))
		for i, r := range rates {
			want[i] = evalForward(tc.model, r, tc.x)
		}
		// Bit-identity holds only on the exact tier; pin it so the assertion
		// survives the CI environment sweeps over MS_ENGINE_TIER.
		shared := NewShared(tc.model, rates)
		shared.SetTier(tensor.TierExact)
		arena := tensor.NewArena()
		for i, r := range rates {
			got := shared.Infer(r, tc.x, arena)
			if !got.SameShape(want[i]) {
				t.Fatalf("%s rate %v: Infer shape %v, Forward %v", tc.name, r, got.Shape, want[i].Shape)
			}
			for j, v := range want[i].Data {
				if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
					t.Fatalf("%s rate %v: Infer[%d]=%v, Forward %v", tc.name, r, j, got.Data[j], v)
				}
			}
			arena.Reset()
		}
		if shared.PackCacheBytes() == 0 {
			t.Fatalf("%s: Shared served every rate but reports no pack memory", tc.name)
		}
	}
}

// evalForward is the eval-mode Forward oracle at rate r: unfused, never
// packed, and it drops every pack the model holds.
func evalForward(model nn.Layer, r float64, x *tensor.Tensor) *tensor.Tensor {
	return model.Forward(nn.Eval(r), x)
}

// TestSharedPackCacheLifecycle verifies lazy per-width construction: no packs
// before the first pass, growth as new widths are served, and no further
// growth when widths repeat.
func TestSharedPackCacheLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	rates := NewRateList(0.25, 4)
	shared := NewShared(miniCNN(rng), rates)
	if b := shared.PackCacheBytes(); b != 0 {
		t.Fatalf("fresh Shared holds %d pack bytes, want 0", b)
	}
	arena := tensor.NewArena()
	shared.Infer(rates[0], randInput(rng, 2, 3, 8, 8), arena)
	arena.Reset()
	b1 := shared.PackCacheBytes()
	if b1 == 0 {
		t.Fatal("first pass built no packs")
	}
	shared.Infer(1, randInput(rng, 2, 3, 8, 8), arena)
	arena.Reset()
	b2 := shared.PackCacheBytes()
	if b2 <= b1 {
		t.Fatalf("serving a new width did not grow the pack cache (%d -> %d)", b1, b2)
	}
	for _, r := range rates {
		shared.Infer(r, randInput(rng, 2, 3, 8, 8), arena)
		arena.Reset()
	}
	b3 := shared.PackCacheBytes()
	for _, r := range rates {
		shared.Infer(r, randInput(rng, 2, 3, 8, 8), arena)
		arena.Reset()
	}
	if b4 := shared.PackCacheBytes(); b4 != b3 {
		t.Fatalf("repeat widths grew the pack cache (%d -> %d)", b3, b4)
	}
}

// TestSharedPackConstructionRace hammers the lazy once-per-width pack build:
// many workers hit a fresh Shared at every rate simultaneously, so the first
// touch of each width races between goroutines (run with -race in CI), and
// every worker must still reproduce the parent's eval-mode Forward
// bit-for-bit.
func TestSharedPackConstructionRace(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	rates := NewRateList(0.25, 4)
	model := miniCNN(rng)

	inputs := make([]*tensor.Tensor, len(rates))
	want := make([]*tensor.Tensor, len(rates))
	for i, r := range rates {
		inputs[i] = randInput(rng, 2, 3, 8, 8)
		want[i] = evalForward(model, r, inputs[i])
	}

	// Fresh Shared: Forward dropped every pack, so the first pass of every
	// worker races into the per-width builders. Bit-identity only holds on
	// the exact tier.
	shared := NewShared(model, rates)
	shared.SetTier(tensor.TierExact)
	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := tensor.NewArena()
			for it := 0; it < iters; it++ {
				for i, r := range rates {
					got := shared.Infer(r, inputs[i], arena)
					for j := range want[i].Data {
						if got.Data[j] != want[i].Data[j] {
							errs <- "worker diverged from Forward"
							return
						}
					}
					arena.Reset()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
