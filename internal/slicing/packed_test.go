package slicing

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// TestSharedPackedMatchesForwardEndToEnd pins the acceptance bound of the
// served path: on the exact tier, Shared.Infer (fused view, conv weights
// read in place, dense weights packed) must equal the parent's eval-mode
// Forward (unfused, never packed) bit for bit at every deployable rate. The
// models cover the shifted-row conv with GroupNorm on its grid (miniCNN,
// VGG13Mini-GN), which keep no pack, and a Dense above the packing
// threshold at every rate (the MLP at batch 48), which does.
func TestSharedPackedMatchesForwardEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	rates := NewRateList(0.25, 4)
	vgg, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	mlp := packedMLP(rng)
	for _, tc := range []struct {
		name  string
		model nn.Layer
		x     *tensor.Tensor
		packs bool
	}{
		{"minicnn", miniCNN(rng), randInput(rng, 4, 3, 8, 8), false},
		{"vgg13mini-gn", vgg, randInput(rng, 3, 3, 16, 16), false},
		{"mlp", mlp, randInput(rng, mlpBatch, 128), true},
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
		if b := shared.PackCacheBytes(); (b != 0) != tc.packs {
			t.Fatalf("%s: Shared served every rate and reports %d pack bytes, want packs %v", tc.name, b, tc.packs)
		}
	}

	// The chunk boundary: a CNN's trunk is served a chunk of samples at a
	// time and its Dense head on the whole batch, so each batch around a
	// rate's chunk size is held to Forward at that same batch (a Dense's
	// last bits depend on the batch), bit for bit on the exact tier and
	// within 1e-12 on fma.
	resnet, _ := models.NewResNet(models.ResNetMini(4, models.NormGroup, 1), rng)
	for _, tc := range []struct {
		name  string
		model *nn.Sequential
		hw    int
	}{{"minicnn", miniCNN(rng), 8}, {"vgg13mini-gn", vgg, 16}, {"resnetmini-gn", resnet, 16}} {
		shared := NewShared(tc.model, rates)
		arena := tensor.NewArena()
		for _, r := range rates {
			for _, batch := range chunkBatches(trunkChunk(tc.model, r, 3, tc.hw, tc.hw)) {
				x := randInput(rng, batch, 3, tc.hw, tc.hw)
				want := evalForward(tc.model, r, x)
				for _, tier := range []tensor.EngineTier{tensor.TierExact, tensor.TierFMA} {
					shared.SetTier(tier)
					got := shared.Infer(r, x, arena)
					for j, v := range want.Data {
						if d := math.Abs(got.Data[j] - v); tier == tensor.TierExact && math.Float64bits(got.Data[j]) != math.Float64bits(v) ||
							d > 1e-12*math.Max(math.Abs(v), 1) {
							t.Fatalf("%s rate %v batch %d tier %v: Infer[%d]=%v, Forward %v", tc.name, r, batch, tier, j, got.Data[j], v)
						}
					}
					arena.Reset()
				}
			}
		}
	}
}

// trunkChunk is the number of samples per chunk in which Shared.Infer serves
// model's trunk at rate r: nn.TrunkChunkBytes over its largest per-sample
// activation, measured by walking one sample of the given shape through the
// layers up to the global average pool.
func trunkChunk(model *nn.Sequential, r float64, sample ...int) int {
	x := tensor.New(append([]int{1}, sample...)...)
	ctx, act := nn.Eval(r), 0
	for _, l := range model.Layers {
		x = l.Infer(ctx, x)
		act = max(act, x.Size())
		if _, gap := l.(*nn.GlobalAvgPool); gap {
			break
		}
	}
	return max(1, nn.TrunkChunkBytes/(8*act))
}

// chunkBatches are the batches that cross a chunk size of c: one and two
// samples, one chunk less one, one and one more, and 17 and 50, which take
// several chunks and a short last one.
func chunkBatches(c int) []int {
	var bs []int
	for _, b := range []int{1, 2, c - 1, c, c + 1, 17, 50} {
		if b > 0 && !slices.Contains(bs, b) {
			bs = append(bs, b)
		}
	}
	return bs
}

// mlpBatch is the batch at which packedMLP's hidden layer is above the
// packing threshold at every rate, so each width it serves builds a pack.
const mlpBatch = 48

// packedMLP is a two-layer MLP on 128 inputs with 10 outputs whose hidden
// Dense packs its weight at every rate when served at batch mlpBatch.
func packedMLP(rng *rand.Rand) *nn.Sequential {
	return nn.NewSequential(
		nn.NewDense(128, 96, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(96, 10, nn.Sliced(4), nn.Fixed(), true, rng),
	)
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
	if !tensor.GemmTBPrefersPacked(mlpBatch, 24, 128) {
		t.Fatal("the MLP's r=0.25 hidden layer is below the packing threshold")
	}
	shared := NewShared(packedMLP(rng), rates)
	if b := shared.PackCacheBytes(); b != 0 {
		t.Fatalf("fresh Shared holds %d pack bytes, want 0", b)
	}
	arena := tensor.NewArena()
	shared.Infer(rates[0], randInput(rng, mlpBatch, 128), arena)
	arena.Reset()
	b1 := shared.PackCacheBytes()
	if b1 == 0 {
		t.Fatal("first pass built no packs")
	}
	shared.Infer(1, randInput(rng, mlpBatch, 128), arena)
	arena.Reset()
	b2 := shared.PackCacheBytes()
	if b2 <= b1 {
		t.Fatalf("serving a new width did not grow the pack cache (%d -> %d)", b1, b2)
	}
	for _, r := range rates {
		shared.Infer(r, randInput(rng, mlpBatch, 128), arena)
		arena.Reset()
	}
	b3 := shared.PackCacheBytes()
	for _, r := range rates {
		shared.Infer(r, randInput(rng, mlpBatch, 128), arena)
		arena.Reset()
	}
	if b4 := shared.PackCacheBytes(); b4 != b3 {
		t.Fatalf("repeat widths grew the pack cache (%d -> %d)", b3, b4)
	}
}

// TestSharedPackConstructionRace hammers the lazy once-per-width pack build:
// many workers hit a fresh Shared at every rate simultaneously, so the first
// touch of each of the MLP's widths races between goroutines (run with -race
// in CI), and every worker must still reproduce the parent's eval-mode
// Forward bit-for-bit. miniCNN rides along: its convs read the parent's
// weights in place from every worker at once.
func TestSharedPackConstructionRace(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	rates := NewRateList(0.25, 4)
	for _, tc := range []struct {
		model nn.Layer
		shape []int
	}{
		{miniCNN(rng), []int{2, 3, 8, 8}},
		{packedMLP(rng), []int{mlpBatch, 128}},
	} {
		inputs := make([]*tensor.Tensor, len(rates))
		want := make([]*tensor.Tensor, len(rates))
		for i, r := range rates {
			inputs[i] = randInput(rng, tc.shape...)
			want[i] = evalForward(tc.model, r, inputs[i])
		}

		// Fresh Shared: Forward dropped every pack, so the first pass of
		// every worker races into the per-width builders. Bit-identity only
		// holds on the exact tier.
		shared := NewShared(tc.model, rates)
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
}
