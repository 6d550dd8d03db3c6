package slicing

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/train"
)

// Extraction from a SlimmableNet-style model must pick the batch-norm set
// belonging to the deployed width.
func TestExtractSwitchableBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	rates := NewRateList(0.25, 4)
	model := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewSwitchableBatchNorm(8, nn.Sliced(4), len(rates)),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	// Train-mode passes at each width so every BN set owns distinct stats.
	for i, r := range rates {
		x := randInput(rng, 4, 3, 6, 6)
		ctx := &nn.Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}
		model.Forward(ctx, x)
	}
	for i, r := range rates {
		x := randInput(rng, 2, 3, 6, 6)
		ctx := &nn.Context{Training: false, Rate: r, WidthIdx: i}
		want := model.Forward(ctx, x)
		got := Extract(model, r, rates).Forward(nn.Eval(1), x)
		for j := range want.Data {
			if math.Abs(want.Data[j]-got.Data[j]) > 1e-10 {
				t.Fatalf("rate %v: switchable-BN extraction differs at %d", r, j)
			}
		}
	}
}

func TestStepStatsMeanLoss(t *testing.T) {
	s := StepStats{Losses: []float64{1, 2, 3}}
	if s.MeanLoss() != 2 {
		t.Fatalf("mean loss %v", s.MeanLoss())
	}
	if (StepStats{}).MeanLoss() != 0 {
		t.Fatal("empty stats must have zero mean loss")
	}
}

func TestTrainerWidthIdxFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	rates := NewRateList(0.25, 4)
	tr := NewTrainer(slicedMLP(rng), rates, Fixed{Rate: 1}, nil, rng)
	if tr.Rates.WidthIdx(0.75) != 2 {
		t.Fatalf("WidthIdx(0.75) = %d", tr.Rates.WidthIdx(0.75))
	}
	if tr.Rates.WidthIdx(0.33) != 0 {
		t.Fatal("unlisted rates must map to width index 0")
	}
}

func TestTrainerGradientAveraging(t *testing.T) {
	// A static schedule of K identical rates must produce exactly the same
	// update as a single pass at that rate (the 1/|Lt| normalization).
	rngA := rand.New(rand.NewSource(302))
	a := slicedMLP(rngA)
	rngB := rand.New(rand.NewSource(302))
	b := slicedMLP(rngB)
	batch := twoBlobs(16, rand.New(rand.NewSource(303)))[0]

	rates := NewRateList(0.25, 4)
	sgdA := train.NewSGD(0.1, 0, 0)
	trA := NewTrainer(a, rates, Static{Rates: RateList{1, 1, 1}}, sgdA, rngA)
	trA.Step(batch)
	sgdB := train.NewSGD(0.1, 0, 0)
	trB := NewTrainer(b, rates, Fixed{Rate: 1}, sgdB, rngB)
	trB.Step(batch)

	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if math.Abs(pa[i].Value.Data[j]-pb[i].Value.Data[j]) > 1e-12 {
				t.Fatalf("averaged triple pass differs from single pass at param %d elem %d", i, j)
			}
		}
	}
}
