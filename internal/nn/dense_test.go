package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelslicing/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestDenseForwardMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, Fixed(), Fixed(), true, rng)
	x := randTensor(rng, 4, 3)
	y := d.Forward(Eval(1), x)
	for i := 0; i < 4; i++ {
		for o := 0; o < 2; o++ {
			want := d.B.Value.Data[o]
			for j := 0; j < 3; j++ {
				want += d.W.Value.At(o, j) * x.At(i, j)
			}
			if math.Abs(y.At(i, o)-want) > 1e-12 {
				t.Fatalf("Dense forward (%d,%d) = %v, want %v", i, o, y.At(i, o), want)
			}
		}
	}
}

func TestDenseGradCheckFullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(5, 4, Fixed(), Fixed(), true, rng)
	x := randTensor(rng, 3, 5)
	if err := CheckGradients(d, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDenseGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(8, 8, Sliced(4), Sliced(4), true, rng)
	for _, r := range []float64{0.25, 0.5, 0.75} {
		aIn, _ := d.Active(r)
		x := randTensor(rng, 2, aIn)
		if err := CheckGradients(d, Train(r, rng), x, nil, 0); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

func TestDenseGradCheckRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(8, 4, Sliced(4), Fixed(), true, rng)
	d.Rescale = true
	x := randTensor(rng, 2, 4) // rate 0.5 → aIn 4
	if err := CheckGradients(d, Train(0.5, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDenseRescaleStabilizesScale(t *testing.T) {
	// With i.i.d. inputs, rescaling should keep the output magnitude of the
	// half-width sub-layer comparable to the full layer.
	rng := rand.New(rand.NewSource(5))
	d := NewDense(64, 32, Sliced(4), Fixed(), false, rng)
	d.Rescale = true
	xFull := randTensor(rng, 16, 64)
	yFull := d.Forward(Eval(1), xFull)
	xHalf := tensor.New(16, 32)
	for i := 0; i < 16; i++ {
		copy(xHalf.Row(i), xFull.Row(i)[:32])
	}
	yHalf := d.Forward(Eval(0.5), xHalf)
	rFull := yFull.L2Norm()
	rHalf := yHalf.L2Norm()
	if rHalf < rFull*0.5 || rHalf > rFull*2 {
		t.Fatalf("rescaled half-width norm %v too far from full %v", rHalf, rFull)
	}
}

// TestDenseEquation9 verifies the block decomposition of Section 3.5:
// for ra < rb, the leading components of the Sub-layer-rb output equal the
// Sub-layer-ra output plus the residual contribution B·xb of the extra
// input groups.
func TestDenseEquation9(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDense(8, 8, Sliced(4), Sliced(4), true, rng)
	ra, rb := 0.5, 1.0
	aInA, aOutA := d.Active(ra)
	aInB, _ := d.Active(rb)

	xb := randTensor(rng, 3, aInB)
	xa := tensor.New(3, aInA)
	for i := 0; i < 3; i++ {
		copy(xa.Row(i), xb.Row(i)[:aInA])
	}
	ya := d.Forward(Eval(ra), xa).Clone()
	yb := d.Forward(Eval(rb), xb)

	// Residual term B·x_b where B = W[0:aOutA, aInA:aInB].
	for i := 0; i < 3; i++ {
		for o := 0; o < aOutA; o++ {
			res := 0.0
			for j := aInA; j < aInB; j++ {
				res += d.W.Value.At(o, j) * xb.At(i, j)
			}
			want := ya.At(i, o) + res
			if math.Abs(yb.At(i, o)-want) > 1e-10 {
				t.Fatalf("Equation 9 violated at (%d,%d): yb=%v, ya+Bxb=%v", i, o, yb.At(i, o), want)
			}
		}
	}
}

// Property: the sliced forward is exactly the forward of a standalone dense
// layer built from the prefix weights (subnet extraction correctness).
func TestQuickDenseSlicePrefixEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDense(8, 8, Sliced(4), Sliced(4), true, rng)
		rates := []float64{0.25, 0.5, 0.75, 1.0}
		r := rates[rng.Intn(len(rates))]
		aIn, aOut := d.Active(r)
		x := randTensor(rng, 2, aIn)
		y := d.Forward(Eval(r), x)

		small := NewDense(aIn, aOut, Fixed(), Fixed(), true, rng)
		for o := 0; o < aOut; o++ {
			copy(small.W.Value.Row(o), d.W.Value.Row(o)[:aIn])
			small.B.Value.Data[o] = d.B.Value.Data[o]
		}
		ys := small.Forward(Eval(1), x)
		for i := range y.Data {
			if math.Abs(y.Data[i]-ys.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseSlicedBackwardTouchesOnlyPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(8, 8, Sliced(4), Sliced(4), true, rng)
	x := randTensor(rng, 2, 4)
	y := d.Forward(Train(0.5, rng), x)
	dy := tensor.New(y.Shape...)
	dy.Fill(1)
	d.Backward(Train(0.5, rng), dy)
	// Gradient entries outside the active 4×4 block must be zero.
	for o := 0; o < 8; o++ {
		for j := 0; j < 8; j++ {
			if o < 4 && j < 4 {
				continue
			}
			if d.W.Grad().At(o, j) != 0 {
				t.Fatalf("gradient leaked outside active block at (%d,%d)", o, j)
			}
		}
	}
	for o := 4; o < 8; o++ {
		if d.B.Grad().Data[o] != 0 {
			t.Fatalf("bias gradient leaked at %d", o)
		}
	}
}

func TestDensePanicsOnWrongInputWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(8, 8, Sliced(4), Sliced(4), false, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong active input width")
		}
	}()
	d.Forward(Eval(0.5), randTensor(rng, 2, 8)) // rate 0.5 wants width 4
}

func TestActiveUnits(t *testing.T) {
	cases := []struct {
		r      float64
		w, g   int
		expect int
	}{
		{1.0, 64, 8, 64},
		{0.5, 64, 8, 32},
		{0.375, 64, 8, 24},
		{0.25, 64, 8, 16},
		{0.125, 64, 8, 8},
		{0.01, 64, 8, 8},  // clamped to one group
		{0.99, 64, 8, 64}, // rounds to full width
		{0.5, 6, 2, 3},    // odd group size
	}
	for _, c := range cases {
		if got := ActiveUnits(c.r, c.w, c.g); got != c.expect {
			t.Errorf("ActiveUnits(%v,%d,%d) = %d, want %d", c.r, c.w, c.g, got, c.expect)
		}
	}
}

// Properties of ActiveUnits: monotone in r, bounded by [width/groups, width],
// and always a multiple of the group size.
func TestQuickActiveUnitsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		groups := 1 + rng.Intn(8)
		width := groups * (1 + rng.Intn(16))
		r1 := rng.Float64()
		r2 := rng.Float64()
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		a1 := ActiveUnits(r1, width, groups)
		a2 := ActiveUnits(r2, width, groups)
		gs := width / groups
		return a1 <= a2 && a1 >= gs && a2 <= width && a1%gs == 0 && a2%gs == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSpecValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible width")
		}
	}()
	Sliced(3).Validate("test", 8)
}

func TestContextEffRate(t *testing.T) {
	if (&Context{}).EffRate() != 1 {
		t.Fatal("zero rate should map to 1")
	}
	if (&Context{Rate: 0.5}).EffRate() != 0.5 {
		t.Fatal("rate 0.5 should pass through")
	}
	if (&Context{Rate: 2}).EffRate() != 1 {
		t.Fatal("rate > 1 should clamp to 1")
	}
	var nilCtx *Context
	if nilCtx.EffRate() != 1 {
		t.Fatal("nil context should mean full width")
	}
}
