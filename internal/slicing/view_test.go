package slicing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// sharedCase is one model/input configuration the zero-copy path must serve
// identically to the Extract deployment path.
type sharedCase struct {
	name  string
	model nn.Layer
	input func(rng *rand.Rand) *tensor.Tensor
	// tol is 0 for bit-for-bit equality (no rescale anywhere: both paths run
	// the same kernels in the same order) and 1e-12 where output rescaling
	// is folded into weights by Extract but applied to activations by the
	// shared path.
	tol float64
}

func sharedCases(rng *rand.Rand) []sharedCase {
	mlp := nn.NewSequential(
		nn.NewDense(12, 24, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(24, 24, nn.Sliced(4), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(24, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	mlpRescale := nn.NewSequential(
		nn.NewDense(12, 24, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(24, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	for _, l := range mlpRescale.Layers {
		if d, ok := l.(*nn.Dense); ok {
			d.Rescale = true
		}
	}
	lstm := nn.NewSequential(
		nn.NewEmbedding(20, 8, rng),
		nn.NewLSTM(8, 8, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewTimeFlatten(),
		nn.NewDense(8, 20, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	lstmStack := nn.NewSequential(
		nn.NewLSTM(8, 8, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewLSTM(8, 8, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewTimeFlatten(),
		nn.NewDense(8, 5, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	resBody := nn.NewSequential(
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewConv2D(8, 8, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
	)
	residual := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewResidual(resBody, nil),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	// A BatchNorm/SwitchableBatchNorm stack with trained running statistics.
	rates := NewRateList(0.25, 4)
	sbn := nn.NewSwitchableBatchNorm(8, nn.Sliced(4), len(rates))
	bnNet := nn.NewSequential(
		nn.NewDense(6, 8, nn.Fixed(), nn.Sliced(4), false, rng),
		sbn,
		nn.NewReLU(),
		nn.NewDense(8, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	for i, r := range rates {
		ctx := &nn.Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}
		x := tensor.New(6, 6)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		bnNet.Forward(ctx, x)
	}

	return []sharedCase{
		{"cnn", miniCNN(rng), func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 2, 3, 8, 8) }, 0},
		{"mlp", mlp, func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 4, 12) }, 0},
		{"mlp-rescale", mlpRescale, func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 4, 12) }, 1e-12},
		{"lstm-rescale", lstm, func(rng *rand.Rand) *tensor.Tensor {
			return tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
		}, 1e-12},
		{"lstm-stack", lstmStack, func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 3, 2, 8) }, 0},
		{"residual", residual, func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 2, 3, 6, 6) }, 0},
		{"switchable-bn", bnNet, func(rng *rand.Rand) *tensor.Tensor { return randInput(rng, 3, 6) }, 0},
	}
}

// TestSharedMatchesExtract pins the zero-copy shared-weight path against the
// Extract deployment path for every layer type at every rate in the default
// rate list.
func TestSharedMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	rates := NewRateList(0.25, 4)
	for _, tc := range sharedCases(rng) {
		shared := NewShared(tc.model, rates)
		shared.SetTier(tensor.TierExact) // oracle tolerances assume the exact tier
		arena := tensor.NewArena()
		for _, r := range rates {
			sub := Extract(tc.model, r, rates)
			x := tc.input(rng)
			want := sub.Forward(nn.Eval(1), x)
			got := shared.Infer(r, x, arena)
			if !want.SameShape(got) {
				t.Fatalf("%s rate %v: shared shape %v, extract shape %v", tc.name, r, got.Shape, want.Shape)
			}
			for i := range want.Data {
				d := math.Abs(want.Data[i] - got.Data[i])
				if d > tc.tol {
					t.Fatalf("%s rate %v: shared path differs at %d: %v vs %v (|Δ|=%g, tol %g)",
						tc.name, r, i, got.Data[i], want.Data[i], d, tc.tol)
				}
			}
			arena.Reset()
		}
	}
}

// TestSharedMatchesPredict pins the fused shared path against Predict's
// unfused inference pass at every rate (bit-for-bit: same kernels, same
// accumulation order).
func TestSharedMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	model := miniCNN(rng)
	rates := NewRateList(0.25, 4)
	shared := NewShared(model, rates)
	shared.SetTier(tensor.TierExact) // Predict runs the exact tier
	for _, r := range rates {
		x := randInput(rng, 2, 3, 8, 8)
		want := Predict(model, rates, r, x)
		got := shared.Infer(r, x, nil)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("rate %v: shared %v != Predict %v at %d", r, got.Data[i], want.Data[i], i)
			}
		}
	}
}

// TestSharedConcurrentInference hammers one shared weight set from many
// goroutines at mixed rates (run with -race in CI): each worker owns an
// arena, serves every rate repeatedly, and must reproduce the single-thread
// outputs bit-for-bit.
func TestSharedConcurrentInference(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	model := miniCNN(rng)
	rates := NewRateList(0.25, 4)
	shared := NewShared(model, rates)

	inputs := make([]*tensor.Tensor, len(rates))
	want := make([]*tensor.Tensor, len(rates))
	for i, r := range rates {
		inputs[i] = randInput(rng, 2, 3, 8, 8)
		want[i] = shared.Infer(r, inputs[i], nil)
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := tensor.NewArena()
			for it := 0; it < iters; it++ {
				i := (w + it) % len(rates)
				got := shared.Infer(rates[i], inputs[i], arena)
				for j := range want[i].Data {
					if got.Data[j] != want[i].Data[j] {
						t.Errorf("worker %d iter %d rate %v: concurrent result diverged", w, it, rates[i])
						return
					}
				}
				arena.Reset()
			}
		}(w)
	}
	wg.Wait()
}
