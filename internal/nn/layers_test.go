package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 2, 2)
	y := r.Forward(Eval(1), x)
	want := []float64{0, 0, 2, 0}
	for i := range y.Data {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward %v", y.Data)
		}
	}
	dy := tensor.FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	dx := r.Backward(Eval(1), dy)
	wantG := []float64{0, 0, 1, 0}
	for i := range dx.Data {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("ReLU backward %v", dx.Data)
		}
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	d := NewDropout(0.5)
	x := tensor.New(1, 10000)
	x.Fill(1)
	y := d.Forward(Train(1, rng), x)
	zeros, kept := 0, 0.0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		} else {
			kept = v
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Fatalf("dropout zeroed %d of 10000, want ≈5000", zeros)
	}
	if math.Abs(kept-2) > 1e-12 {
		t.Fatalf("inverted scaling: survivor value %v, want 2", kept)
	}
	// Eval is the identity (same tensor).
	ye := d.Forward(Eval(1), x)
	if ye != x {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Backward applies the same mask.
	d.Forward(Train(1, rng), x)
	dy := tensor.New(1, 10000)
	dy.Fill(1)
	dx := d.Backward(Train(1, rng), dy)
	for i := range dx.Data {
		if dx.Data[i] != d.mask[i] {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := NewDropout(0.3)
	x := tensor.New(1, 50000)
	x.Fill(1)
	y := d.Forward(Train(1, rng), x)
	if m := y.Mean(); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout mean %v, want ≈1 (inverted scaling)", m)
	}
}

func TestDropoutRejectsBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1.0)
}

func TestMaxPool2DForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(Eval(1), x)
	want := []float64{4, 8, 12, 16}
	for i := range y.Data {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool forward %v, want %v", y.Data, want)
		}
	}
	dy := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(Eval(1), dy)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward %v", dx.Data)
	}
	if dx.Sum() != 10 {
		t.Fatal("maxpool backward must route gradients only to argmax positions")
	}
}

func TestGlobalAvgPoolForwardBackward(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(Eval(1), x)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("avgpool forward %v", y.Data)
	}
	dy := tensor.FromSlice([]float64{4, 8}, 1, 2)
	dx := g.Backward(Eval(1), dy)
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Fatalf("avgpool backward %v", dx.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := NewFlatten()
	x := randTensor(rng, 2, 3, 4, 4)
	y := f.Forward(Eval(1), x)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(Eval(1), y)
	if !dx.SameShape(x) {
		t.Fatalf("flatten backward shape %v", dx.Shape)
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	e := NewEmbedding(10, 4, rng)
	ids := tensor.FromSlice([]float64{1, 3, 1}, 3)
	y := e.Forward(Eval(1), ids)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("embedding shape %v", y.Shape)
	}
	for j := 0; j < 4; j++ {
		if y.At(0, j) != e.W.Value.At(1, j) {
			t.Fatal("embedding lookup mismatch")
		}
	}
	dy := tensor.New(3, 4)
	dy.Fill(1)
	if got := e.Backward(Eval(1), dy); got != nil {
		t.Fatal("embedding must return nil input gradient")
	}
	// Token 1 appeared twice → its row accumulates 2 per dim.
	for j := 0; j < 4; j++ {
		if e.W.Grad().At(1, j) != 2 {
			t.Fatalf("embedding grad row 1 = %v, want 2", e.W.Grad().At(1, j))
		}
		if e.W.Grad().At(3, j) != 1 {
			t.Fatalf("embedding grad row 3 = %v, want 1", e.W.Grad().At(3, j))
		}
		if e.W.Grad().At(0, j) != 0 {
			t.Fatal("untouched embedding rows must have zero grad")
		}
	}
}

func TestEmbeddingRejectsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	e := NewEmbedding(4, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward(Eval(1), tensor.FromSlice([]float64{5}, 1))
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0, 0}, 2, 2)
	loss, d := SoftmaxCrossEntropy(nil, logits, []int{0, 1})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform logits loss %v, want ln2", loss)
	}
	// Gradient: (softmax - onehot)/B = (0.5-1)/2 = -0.25 at the label.
	if math.Abs(d.At(0, 0)+0.25) > 1e-12 || math.Abs(d.At(0, 1)-0.25) > 1e-12 {
		t.Fatalf("gradient %v", d.Data)
	}
}

func TestSoftmaxCrossEntropyGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	logits := randTensor(rng, 3, 5)
	labels := []int{1, 4, 0}
	_, d := SoftmaxCrossEntropy(nil, logits, labels)
	eps := 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(nil, logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(nil, logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-d.Data[i]) > 1e-6 {
			t.Fatalf("CE gradient[%d]: analytic %v vs numeric %v", i, d.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 0, -1000, 1000}, 2, 2)
	loss, d := SoftmaxCrossEntropy(nil, logits, []int{0, 1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || !d.AllFinite() {
		t.Fatal("softmax cross-entropy must be stable for large logits")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	p := Softmax(randTensor(rng, 4, 7))
	for i := 0; i < 4; i++ {
		s := 0.0
		for _, v := range p.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seq := NewSequential(
		NewDense(6, 8, Fixed(), Sliced(4), true, rng),
		NewReLU(),
		NewDense(8, 3, Sliced(4), Fixed(), true, rng),
	)
	if len(seq.Params()) != 4 {
		t.Fatalf("want 4 params, got %d", len(seq.Params()))
	}
	x := randTensor(rng, 2, 6)
	y := seq.Forward(Eval(0.5), x)
	if y.Dim(1) != 3 {
		t.Fatalf("sequential output %v", y.Shape)
	}
	if err := CheckGradients(seq, Train(0.5, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialPrefixAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	seq := NewSequential(
		NewDense(4, 4, Fixed(), Fixed(), true, rng),
		NewReLU(),
		NewDense(4, 2, Fixed(), Fixed(), true, rng),
	)
	x := randTensor(rng, 2, 4)
	h := x
	for _, l := range seq.Layers[:2] {
		h = l.Forward(Eval(1), h)
	}
	dy := tensor.New(2, 4)
	dy.Fill(1)
	dx := seq.BackwardRange(Eval(1), dy, 0, 2)
	if !dx.SameShape(x) {
		t.Fatalf("range backward shape %v", dx.Shape)
	}
}

func TestResidualIdentityGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	body := NewSequential(
		NewDense(6, 6, Sliced(3), Sliced(3), true, rng),
		NewReLU(),
		NewDense(6, 6, Sliced(3), Sliced(3), true, rng),
	)
	res := NewResidual(body, nil)
	x := randTensor(rng, 2, 6)
	if err := CheckGradients(res, Train(1, rng), x, nil, 0); err != nil {
		t.Fatalf("full: %v", err)
	}
	x2 := randTensor(rng, 2, 4)
	if err := CheckGradients(res, Train(2.0/3.0, rng), x2, nil, 0); err != nil {
		t.Fatalf("sliced: %v", err)
	}
}

func TestResidualProjectionShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	body := NewDense(4, 8, Fixed(), Sliced(4), true, rng)
	short := NewDense(4, 8, Fixed(), Sliced(4), false, rng)
	res := NewResidual(body, short)
	x := randTensor(rng, 2, 4)
	y := res.Forward(Eval(1), x)
	if y.Dim(1) != 8 {
		t.Fatalf("residual output %v", y.Shape)
	}
	if len(res.Params()) != 3 {
		t.Fatalf("want 3 params, got %d", len(res.Params()))
	}
	if err := CheckGradients(res, Train(0.5, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestConvSequentialGradCheckEndToEnd(t *testing.T) {
	// A miniature CNN: conv → GN → ReLU → pool → flatten → dense, gradient
	// checked end-to-end at full and half rate.
	rng := rand.New(rand.NewSource(81))
	seq := NewSequential(
		NewConv2D(2, 4, 3, 3, 1, 1, Fixed(), Sliced(2), false, rng),
		NewGroupNorm(4, 2, Sliced(2), 1e-5),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(4*2*2, 3, Sliced(2), Fixed(), true, rng),
	)
	x := randTensor(rng, 2, 2, 4, 4)
	if err := CheckGradients(seq, Train(1, rng), x, nil, 40); err != nil {
		t.Fatalf("full: %v", err)
	}
	if err := CheckGradients(seq, Train(0.5, rng), x, nil, 40); err != nil {
		t.Fatalf("half: %v", err)
	}
}
