package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestConv2DForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := NewConv2D(2, 3, 3, 3, 1, 1, Fixed(), Fixed(), true, rng)
	x := randTensor(rng, 2, 2, 5, 5)
	y := c.Forward(Eval(1), x)
	if y.Dim(0) != 2 || y.Dim(1) != 3 || y.Dim(2) != 5 || y.Dim(3) != 5 {
		t.Fatalf("output shape %v", y.Shape)
	}
	// Direct convolution reference.
	for b := 0; b < 2; b++ {
		for oc := 0; oc < 3; oc++ {
			for oy := 0; oy < 5; oy++ {
				for ox := 0; ox < 5; ox++ {
					want := c.B.Value.Data[oc]
					for ic := 0; ic < 2; ic++ {
						for ki := 0; ki < 3; ki++ {
							for kj := 0; kj < 3; kj++ {
								iy, ix := oy-1+ki, ox-1+kj
								if iy < 0 || iy >= 5 || ix < 0 || ix >= 5 {
									continue
								}
								want += c.W.Value.At(oc, (ic*3+ki)*3+kj) * x.At(b, ic, iy, ix)
							}
						}
					}
					if math.Abs(y.At(b, oc, oy, ox)-want) > 1e-10 {
						t.Fatalf("conv mismatch at (%d,%d,%d,%d): %v want %v",
							b, oc, oy, ox, y.At(b, oc, oy, ox), want)
					}
				}
			}
		}
	}
}

func TestConv2DGradCheckFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := NewConv2D(2, 3, 3, 3, 1, 1, Fixed(), Fixed(), true, rng)
	x := randTensor(rng, 2, 2, 4, 4)
	if err := CheckGradients(c, Train(1, rng), x, nil, 64); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DGradCheckStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := NewConv2D(2, 2, 3, 3, 2, 1, Fixed(), Fixed(), false, rng)
	x := randTensor(rng, 2, 2, 5, 5)
	if err := CheckGradients(c, Train(1, rng), x, nil, 64); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng)
	for _, r := range []float64{0.25, 0.5, 0.75} {
		aIn, _ := c.Active(r)
		x := randTensor(rng, 1, aIn, 4, 4)
		if err := CheckGradients(c, Train(r, rng), x, nil, 48); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

// TestConv2DGradCheckBothBackwardRoutes gradchecks a quarter-width pair of
// 4-group convolutions: the first has aOut = 2, so its dW (GemmTB, m = aOut)
// and dcol (GemmTA, k = aOut) products take the strided loops; the second
// has aOut = 4 and takes the blocked engine for both.
func TestConv2DGradCheckBothBackwardRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := &Sequential{Layers: []Layer{
		NewConv2D(4, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng),
		NewConv2D(8, 16, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng),
	}}
	x := randTensor(rng, 2, 1, 5, 5)
	if err := CheckGradients(net, Train(0.25, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DGradCheck1x1(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := Conv1x1(4, 4, 1, Sliced(2), Sliced(2), rng)
	x := randTensor(rng, 2, 2, 3, 3) // rate 0.5 → 2 channels
	if err := CheckGradients(c, Train(0.5, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// The sliced convolution must equal a standalone convolution built from the
// prefix of the kernel — the conv analogue of subnet extraction.
func TestConv2DSlicePrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	c := NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng)
	r := 0.5
	aIn, aOut := c.Active(r)
	x := randTensor(rng, 2, aIn, 6, 6)
	y := c.Forward(Eval(r), x)

	small := NewConv2D(aIn, aOut, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
	for oc := 0; oc < aOut; oc++ {
		copy(small.W.Value.Row(oc), c.W.Value.Row(oc)[:aIn*9])
	}
	ys := small.Forward(Eval(1), x)
	if !y.SameShape(ys) {
		t.Fatalf("shape mismatch %v vs %v", y.Shape, ys.Shape)
	}
	for i := range y.Data {
		if math.Abs(y.Data[i]-ys.Data[i]) > 1e-12 {
			t.Fatalf("sliced conv differs from extracted subnet at %d", i)
		}
	}
}

func TestConv2DQuadraticCost(t *testing.T) {
	// The number of multiply-adds of a sliced conv is (aIn·aOut)/(In·Out) of
	// the full cost — quadratic in the slice rate when both dims slice.
	rng := rand.New(rand.NewSource(26))
	c := NewConv2D(16, 16, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng)
	full := float64(16 * 16)
	for _, r := range []float64{0.25, 0.5, 0.75, 1.0} {
		aIn, aOut := c.Active(r)
		got := float64(aIn*aOut) / full
		if math.Abs(got-r*r) > 1e-9 {
			t.Fatalf("cost ratio at r=%v: %v, want %v", r, got, r*r)
		}
	}
}

func TestConv2DOutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	c := NewConv2D(1, 1, 3, 3, 2, 1, Fixed(), Fixed(), false, rng)
	h, w := c.OutShape(32, 32)
	if h != 16 || w != 16 {
		t.Fatalf("OutShape = (%d,%d), want (16,16)", h, w)
	}
}
