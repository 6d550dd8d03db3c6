package slicing

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/cost"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func miniCNN(rng *rand.Rand) *nn.Sequential {
	return nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(8, 8, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
}

func TestExtractCNNMatchesSlicedParent(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	model := miniCNN(rng)
	rates := NewRateList(0.25, 4)
	for _, r := range rates {
		sub := Extract(model, r, rates)
		x := randInput(rng, 2, 3, 8, 8)
		want := Predict(model, rates, r, x)
		got := sub.Forward(nn.Eval(1), x)
		if !want.SameShape(got) {
			t.Fatalf("rate %v: shape %v vs %v", r, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-10 {
				t.Fatalf("rate %v: extracted subnet differs at %d: %v vs %v",
					r, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestExtractReducesParameterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	model := miniCNN(rng)
	rates := NewRateList(0.25, 4)
	sub := Extract(model, 0.5, rates)
	fullP, _ := cost.Measure(model, []int{3, 8, 8}, 1)
	subP, _ := cost.Measure(sub, []int{3, 8, 8}, 1)
	if subP.Params >= fullP.Params {
		t.Fatalf("extracted subnet params %d not smaller than full %d", subP.Params, fullP.Params)
	}
	// The sliced parent at rate 0.5 must report the same active params.
	slicedP, _ := cost.Measure(model, []int{3, 8, 8}, 0.5)
	if subP.Params != slicedP.Params {
		t.Fatalf("extracted params %d != sliced measurement %d", subP.Params, slicedP.Params)
	}
}

func TestExtractLSTMStackWithRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	model := nn.NewSequential(
		nn.NewEmbedding(20, 8, rng),
		nn.NewLSTM(8, 8, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewLSTM(8, 8, nn.Sliced(4), nn.Sliced(4), true, rng),
		nn.NewTimeFlatten(),
		nn.NewDense(8, 20, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	// Make the decoder rescale like the paper's NNLM output layer.
	model.Layers[4].(*nn.Dense).Rescale = true
	rates := NewRateList(0.25, 4)
	ids := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2) // T=3, B=2
	for _, r := range rates {
		want := Predict(model, rates, r, ids)
		sub := Extract(model, r, rates)
		got := sub.Forward(nn.Eval(1), ids)
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-9 {
				t.Fatalf("rate %v: LSTM extraction differs at %d: %v vs %v",
					r, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestExtractResidualBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	body := nn.NewSequential(
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewConv2D(8, 8, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
	)
	model := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewResidual(body, nil),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	rates := NewRateList(0.25, 4)
	x := randInput(rng, 2, 3, 6, 6)
	for _, r := range rates {
		want := Predict(model, rates, r, x)
		got := Extract(model, r, rates).Forward(nn.Eval(1), x)
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-10 {
				t.Fatalf("rate %v: residual extraction differs", r)
			}
		}
	}
}

func TestExtractBatchNormUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	bn := nn.NewBatchNorm(8, nn.Sliced(4))
	// Push the running stats away from the default.
	for i := 0; i < 20; i++ {
		x := randInput(rng, 8, 8)
		x.Scale(3)
		bn.Forward(nn.Train(1, rng), x)
	}
	rates := NewRateList(0.25, 4)
	sub := Extract(bn, 0.5, rates).(*nn.BatchNorm)
	x := randInput(rng, 4, 4)
	want := bn.Forward(nn.Eval(0.5), x)
	got := sub.Forward(nn.Eval(1), x)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("extracted batch-norm differs from sliced parent")
		}
	}
}

func TestExtractUnknownLayerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown layer type")
		}
	}()
	Extract(unknownLayer{}, 0.5, NewRateList(0.25, 4))
}

type unknownLayer struct{}

func (unknownLayer) Forward(*nn.Context, *tensor.Tensor) *tensor.Tensor  { return nil }
func (unknownLayer) Backward(*nn.Context, *tensor.Tensor) *tensor.Tensor { return nil }
func (unknownLayer) Infer(*nn.Context, *tensor.Tensor) *tensor.Tensor    { return nil }
func (unknownLayer) Params() []*nn.Param                                 { return nil }
