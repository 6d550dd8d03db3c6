package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// inferRates cover full width, interior slice points and the lower bound.
var inferRates = []float64{0.25, 0.5, 0.75, 1.0}

// checkInferMatchesForward runs the layer's Forward (evaluation mode) and
// Infer on the same input at the same rate and requires bit-identical
// outputs: both paths execute the same kernel calls in the same order, so
// any drift is a bug, not rounding.
func checkInferMatchesForward(t *testing.T, name string, l Layer, x *tensor.Tensor, r float64, widthIdx int) {
	t.Helper()
	want := l.Forward(&Context{Rate: r, WidthIdx: widthIdx}, x)
	arena := tensor.NewArena()
	for pass := 0; pass < 2; pass++ { // second pass exercises slab reuse
		ctx := &Context{Rate: r, WidthIdx: widthIdx, Arena: arena}
		got := Infer(l, ctx, x)
		if !got.SameShape(want) {
			t.Fatalf("%s r=%v: Infer shape %v, Forward shape %v", name, r, got.Shape, want.Shape)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s r=%v pass=%d: Infer[%d]=%g, Forward=%g", name, r, pass, i, got.Data[i], want.Data[i])
			}
		}
		arena.Reset()
	}
	// Arena-less inference must work too.
	got := Infer(l, &Context{Rate: r, WidthIdx: widthIdx}, x)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s r=%v (nil arena): Infer[%d]=%g, Forward=%g", name, r, i, got.Data[i], want.Data[i])
		}
	}
}

func TestInferMatchesForwardDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rescale := range []bool{false, true} {
		for _, bias := range []bool{false, true} {
			d := NewDense(16, 12, Sliced(4), Sliced(4), bias, rng)
			d.Rescale = rescale
			for _, r := range inferRates {
				aIn, _ := d.Active(r)
				x := randTensor(rng, 5, aIn)
				checkInferMatchesForward(t, "Dense", d, x, r, 0)
			}
		}
	}
}

// TestDenseForwardInferAcrossSmallGemm pins Forward ≡ Infer bit for bit on
// both sides of the inference small-product threshold (48³ = 110592 m·n·k):
// 8×10×64 runs the strided dot loop, 32×64×64 the packed panel.
// Forward shares Infer's kernel and epilogue, so the training path's own
// shape rule for GemmTB cannot make the two disagree.
func TestDenseForwardInferAcrossSmallGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, batch := range []int{8, 32} {
		for _, out := range []int{10, 16, 64} {
			d := NewDense(64, out, Sliced(4), Fixed(), true, rng)
			d.Rescale = true
			for _, r := range []float64{0.5, 1} {
				aIn, _ := d.Active(r)
				x := randTensor(rng, batch, aIn)
				checkInferMatchesForward(t, fmt.Sprintf("Dense b=%d out=%d", batch, out), d, x, r, 0)
			}
		}
	}
}

func TestInferMatchesForwardConv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(8, 12, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng)
	for _, r := range inferRates {
		aIn, _ := c.Active(r)
		x := randTensor(rng, 3, aIn, 6, 6)
		checkInferMatchesForward(t, "Conv2D", c, x, r, 0)
	}
}

func TestInferMatchesForwardNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGroupNorm(16, 4, Sliced(4), 1e-5)
	for i := range g.Gamma.Value.Data {
		g.Gamma.Value.Data[i] = 0.5 + rng.Float64()
		g.Beta.Value.Data[i] = rng.NormFloat64()
	}
	for _, r := range inferRates {
		aC := g.Spec.Active(r, g.C)
		checkInferMatchesForward(t, "GroupNorm-4d", g, randTensor(rng, 2, aC, 3, 3), r, 0)
		checkInferMatchesForward(t, "GroupNorm-2d", g, randTensor(rng, 4, aC), r, 0)
	}

	b := NewBatchNorm(16, Sliced(4))
	// Train once at full width so the running statistics are non-trivial.
	b.Forward(&Context{Training: true, Rate: 1}, randTensor(rng, 6, 16, 3, 3))
	for _, r := range inferRates {
		aC := b.Spec.Active(r, b.C)
		checkInferMatchesForward(t, "BatchNorm", b, randTensor(rng, 2, aC, 3, 3), r, 0)
	}

	s := NewSwitchableBatchNorm(16, Sliced(4), len(inferRates))
	for i, r := range inferRates {
		s.Forward(&Context{Training: true, Rate: r, WidthIdx: i}, randTensor(rng, 6, s.BNs[i].Spec.Active(r, 16), 2, 2))
	}
	for i, r := range inferRates {
		aC := s.BNs[i].Spec.Active(r, 16)
		checkInferMatchesForward(t, "SwitchableBatchNorm", s, randTensor(rng, 3, aC, 2, 2), r, i)
	}
}

func TestInferMatchesForwardRecurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, rescale := range []bool{false, true} {
		rn := NewRNN(8, 12, Sliced(4), Sliced(4), rescale, rng)
		gr := NewGRU(8, 12, Sliced(4), Sliced(4), rescale, rng)
		ls := NewLSTM(8, 12, Sliced(4), Sliced(4), rescale, rng)
		for _, r := range inferRates {
			aIn, _ := rn.Active(r)
			x := randTensor(rng, 5, 3, aIn)
			checkInferMatchesForward(t, "RNN", rn, x, r, 0)
			checkInferMatchesForward(t, "GRU", gr, x, r, 0)
			checkInferMatchesForward(t, "LSTM", ls, x, r, 0)
		}
	}
}

func TestInferMatchesForwardStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkInferMatchesForward(t, "ReLU", NewReLU(), randTensor(rng, 4, 9), 1, 0)
	checkInferMatchesForward(t, "Dropout", NewDropout(0.5), randTensor(rng, 4, 9), 1, 0)
	checkInferMatchesForward(t, "MaxPool", NewMaxPool2D(2, 2), randTensor(rng, 2, 3, 6, 6), 1, 0)
	checkInferMatchesForward(t, "GAP", NewGlobalAvgPool(), randTensor(rng, 2, 3, 5, 5), 1, 0)
	checkInferMatchesForward(t, "Flatten", NewFlatten(), randTensor(rng, 2, 3, 4, 4), 1, 0)
	checkInferMatchesForward(t, "TimeFlatten", NewTimeFlatten(), randTensor(rng, 5, 2, 7), 1, 0)

	e := NewEmbedding(11, 6, rng)
	ids := tensor.New(3, 4)
	for i := range ids.Data {
		ids.Data[i] = float64(rng.Intn(11))
	}
	checkInferMatchesForward(t, "Embedding", e, ids, 1, 0)
}

func TestInferMatchesForwardComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	body := NewSequential(
		Conv3x3(8, 8, Sliced(4), Sliced(4), rng),
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
	)
	res := NewResidual(body, nil)
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		res,
		NewGlobalAvgPool(),
		NewFlatten(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
	)
	for _, r := range inferRates {
		x := randTensor(rng, 2, 3, 8, 8)
		checkInferMatchesForward(t, "VGG-ish", net, x, r, 0)
	}
}

// TestInferAllocsFree is the acceptance criterion: a steady-state Dense-MLP
// inference with an arena performs zero heap allocations.
func TestInferAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(
		NewDense(16, 64, Fixed(), Sliced(4), true, rng),
		NewReLU(),
		NewDense(64, 64, Sliced(4), Sliced(4), true, rng),
		NewReLU(),
		NewDense(64, 4, Sliced(4), Fixed(), true, rng),
	)
	x := randTensor(rng, 8, 16)
	arena := tensor.NewArena()
	ctx := &Context{Rate: 0.5, Arena: arena}
	pass := func() {
		net.Infer(ctx, x)
		arena.Reset()
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs > 0 {
		t.Fatalf("arena-backed MLP inference allocates %v times per pass, want 0", allocs)
	}
}
