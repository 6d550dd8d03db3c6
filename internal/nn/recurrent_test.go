package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

func TestLSTMShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	l := NewLSTM(6, 8, Fixed(), Sliced(4), false, rng)
	x := randTensor(rng, 3, 2, 6)
	y := l.Forward(Eval(1), x)
	if y.Dim(0) != 3 || y.Dim(1) != 2 || y.Dim(2) != 8 {
		t.Fatalf("LSTM output shape %v", y.Shape)
	}
	for r, want := range map[float64]int{0.5: 4, 0.75: 6} {
		if y = l.Forward(Eval(r), x); y.Dim(2) != want {
			t.Fatalf("LSTM output width %d at rate %v, want %d", y.Dim(2), r, want)
		}
	}
}

func TestLSTMGradCheckFull(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	l := NewLSTM(5, 6, Fixed(), Sliced(2), false, rng)
	x := randTensor(rng, 3, 2, 5)
	if err := CheckGradients(l, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLSTMGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	l := NewLSTM(8, 8, Sliced(4), Sliced(4), false, rng)
	for _, r := range []float64{0.25, 0.5, 0.75} {
		aIn, _ := l.Active(r)
		x := randTensor(rng, 2, 2, aIn)
		if err := CheckGradients(l, Train(r, rng), x, nil, 0); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

func TestLSTMGradCheckRescaled(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	l := NewLSTM(8, 8, Sliced(4), Sliced(4), true, rng)
	x := randTensor(rng, 2, 2, 4)
	if err := CheckGradients(l, Train(0.5, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLSTMForgetGateBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	l := NewLSTM(4, 4, Fixed(), Fixed(), false, rng)
	for i := 0; i < 4; i++ {
		if l.B.Value.Data[4+i] != 1 {
			t.Fatal("forget gate bias not initialized to 1")
		}
		if l.B.Value.Data[i] != 0 {
			t.Fatal("input gate bias not zero")
		}
	}
}

// A sliced LSTM must compute exactly what a standalone LSTM with the prefix
// weights computes — the recurrent analogue of subnet extraction. Gate
// blocks must be sliced per gate, not as a contiguous 4H prefix.
func TestLSTMSlicePrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	l := NewLSTM(8, 8, Sliced(4), Sliced(4), false, rng)
	r := 0.5
	aIn, aH := l.Active(r)
	x := randTensor(rng, 4, 2, aIn)
	y := l.Forward(Eval(r), x)

	small := NewLSTM(aIn, aH, Fixed(), Fixed(), false, rng)
	for k := 0; k < 4; k++ {
		for j := 0; j < aH; j++ {
			copy(small.Wx.Value.Row(k*aH+j), l.Wx.Value.Row(k*8 + j)[:aIn])
			copy(small.Wh.Value.Row(k*aH+j), l.Wh.Value.Row(k*8 + j)[:aH])
			small.B.Value.Data[k*aH+j] = l.B.Value.Data[k*8+j]
		}
	}
	ys := small.Forward(Eval(1), x)
	for i := range y.Data {
		if math.Abs(y.Data[i]-ys.Data[i]) > 1e-12 {
			t.Fatalf("sliced LSTM differs from extracted subnet at %d: %v vs %v", i, y.Data[i], ys.Data[i])
		}
	}
}

func TestRecurrentStateIsZeroInitialized(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	l := NewLSTM(4, 4, Fixed(), Fixed(), false, rng)
	x := tensor.New(1, 1, 4) // zero input
	y := l.Forward(Eval(1), x)
	// With zero input and zero initial state, preactivations reduce to the
	// biases; the output must be deterministic and identical across calls.
	y2 := l.Forward(Eval(1), x)
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			t.Fatal("LSTM forward is not deterministic for fixed input")
		}
	}
}
