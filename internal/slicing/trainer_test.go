package slicing

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// twoBlobs builds a linearly separable 2-class dataset.
func twoBlobs(n int, rng *rand.Rand) []train.Batch {
	var batches []train.Batch
	bs := 16
	for len(batches)*bs < n {
		x := tensor.New(bs, 8)
		labels := make([]int, bs)
		for i := 0; i < bs; i++ {
			c := rng.Intn(2)
			labels[i] = c
			sign := float64(2*c - 1)
			for j := 0; j < 8; j++ {
				x.Set(sign*1.5+rng.NormFloat64()*0.5, i, j)
			}
		}
		batches = append(batches, train.Batch{X: x, Labels: labels})
	}
	return batches
}

func slicedMLP(rng *rand.Rand) *nn.Sequential {
	return nn.NewSequential(
		nn.NewDense(8, 16, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(16, 16, nn.Sliced(4), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(16, 2, nn.Sliced(4), nn.Fixed(), true, rng),
	)
}

func TestTrainerLearnsAtAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	model := slicedMLP(rng)
	rates := NewRateList(0.25, 4)
	tr := NewTrainer(model, rates, NewRandomWeighted(rates, []float64{0.25, 0.125, 0.125, 0.5}, 2),
		train.NewSGD(0.1, 0.9, 1e-4), rng)
	data := twoBlobs(256, rng)
	test := twoBlobs(128, rng)
	for epoch := 0; epoch < 15; epoch++ {
		tr.Epoch(data)
	}
	for i, r := range rates {
		res := train.Evaluate(model, r, i, test)
		if res.Accuracy < 0.95 {
			t.Fatalf("rate %v accuracy %.3f, want ≥0.95", r, res.Accuracy)
		}
	}
}

func TestTrainerStepSchedulesAndReports(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	model := slicedMLP(rng)
	rates := NewRateList(0.25, 4)
	tr := NewTrainer(model, rates, Static{Rates: rates}, train.NewSGD(0.01, 0, 0), rng)
	b := twoBlobs(16, rng)[0]
	stats := tr.Step(b)
	if len(stats.Rates) != 4 || len(stats.Losses) != 4 {
		t.Fatalf("static step stats %+v", stats)
	}
	if stats.MeanLoss() <= 0 {
		t.Fatal("losses must be positive at init")
	}
}

// Gradient accumulation across scheduled subnets must equal the sum of the
// gradients of each subnet trained alone — the heart of Algorithm 1.
func TestTrainerAccumulatesSubnetGradients(t *testing.T) {
	rngA := rand.New(rand.NewSource(102))
	a := slicedMLP(rngA)
	rngB := rand.New(rand.NewSource(102)) // identical init
	b := slicedMLP(rngB)

	batch := twoBlobs(16, rand.New(rand.NewSource(5)))[0]

	// Model A: one combined pass over rates {0.5, 1.0}.
	for _, r := range []float64{0.5, 1.0} {
		ctx := &nn.Context{Training: true, Rate: r, RNG: rngA}
		logits := a.Forward(ctx, batch.X)
		_, dy := nn.SoftmaxCrossEntropy(logits, batch.Labels)
		a.Backward(ctx, dy)
	}
	// Model B: two separate passes, grads summed manually.
	accum := make([]*tensor.Tensor, len(b.Params()))
	for i := range accum {
		accum[i] = tensor.New(b.Params()[i].Grad().Shape...)
	}
	for _, r := range []float64{0.5, 1.0} {
		train.ZeroGrad(b.Params())
		ctx := &nn.Context{Training: true, Rate: r, RNG: rngB}
		logits := b.Forward(ctx, batch.X)
		_, dy := nn.SoftmaxCrossEntropy(logits, batch.Labels)
		b.Backward(ctx, dy)
		for i, p := range b.Params() {
			accum[i].Add(p.Grad())
		}
	}
	for i, p := range a.Params() {
		for j := range p.Grad().Data {
			if math.Abs(p.Grad().Data[j]-accum[i].Data[j]) > 1e-10 {
				t.Fatalf("gradient accumulation mismatch at param %d elem %d", i, j)
			}
		}
	}
}

func TestPredictAndEvaluateAll(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	model := slicedMLP(rng)
	rates := NewRateList(0.25, 4)
	x := tensor.New(4, 8)
	logits := Predict(model, rates, 0.5, x)
	if logits.Dim(0) != 4 || logits.Dim(1) != 2 {
		t.Fatalf("Predict output %v", logits.Shape)
	}
	res := EvaluateAll(model, rates, twoBlobs(32, rng))
	if len(res) != 4 {
		t.Fatalf("EvaluateAll returned %d results", len(res))
	}
	for _, r := range res {
		if r.N == 0 {
			t.Fatal("evaluation saw no samples")
		}
	}
}

// Training with the full-width-only scheduler then slicing directly must
// hurt small subnets far more than slicing-aware training — the qualitative
// claim behind the lb=1.0 rows of Table 4.
func TestDirectSlicingDegradesWithoutSlicingTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	rates := NewRateList(0.25, 4)
	data := twoBlobs(256, rng)
	test := twoBlobs(128, rng)

	full := slicedMLP(rng)
	trFull := NewTrainer(full, rates, Fixed{Rate: 1.0}, train.NewSGD(0.1, 0.9, 1e-4), rng)
	sliced := slicedMLP(rng)
	trSliced := NewTrainer(sliced, rates, NewRMinMax(rates), train.NewSGD(0.1, 0.9, 1e-4), rng)
	for epoch := 0; epoch < 15; epoch++ {
		trFull.Epoch(data)
		trSliced.Epoch(data)
	}
	accFullAtQuarter := train.Evaluate(full, 0.25, 0, test).Accuracy
	accSlicedAtQuarter := train.Evaluate(sliced, 0.25, 0, test).Accuracy
	if accSlicedAtQuarter < accFullAtQuarter-1e-9 {
		t.Fatalf("slicing-trained subnet (%.3f) should not be worse than direct slicing (%.3f)",
			accSlicedAtQuarter, accFullAtQuarter)
	}
}
