package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
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
// 4-group convolutions: the first has aOut = 2, one row pair of dW's dot
// tiles (GemmShiftTB, m = aOut), the second aOut = 4, two. (Being same
// convolutions, both take dx through the flipped-kernel product; the
// strided tests cover GemmTB, GemmTA and Col2Im.)
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

// TestConv2DWeightGradMatchesIm2col holds a same convolution's training
// pass to the im2col route (trainVsIm2col): y and dx bit for bit, and dW —
// windowed dot products over the padded input — with dB within 1e-12 of
// GemmTB over the materialized column matrix. Planes of 6×5 and 4×4 leave
// grids that are not whole 4-lane vectors and stack samples; 16×16 runs one
// sample per group.
func TestConv2DWeightGradMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{3, 5} {
		c := NewConv2D(8, 12, k, k, 1, k/2, Sliced(4), Sliced(4), true, rng)
		tensor.InitNormal(c.B.Value, 1, rng)
		for _, r := range []float64{0.25, 0.5, 1} {
			aIn, aOut := c.Active(r)
			for _, hw := range [][2]int{{6, 5}, {4, 4}, {16, 16}} {
				x := randTensor(rng, 3, aIn, hw[0], hw[1])
				dy := randTensor(rng, 3, aOut, hw[0], hw[1])
				if err := trainVsIm2col(c, r, x, dy, 1e-12); err != nil {
					t.Fatalf("r=%v: %v", r, err)
				}
			}
		}
	}
}

// TestConv2DBackwardSameConvMatchesCol2Im holds the data gradient of a
// stride-1 same convolution, computed as a flipped-kernel convolution of dy,
// to the GemmTA + Col2Im route every other shape takes. The two sum the same
// products in different orders, so they agree to rounding, not bit for bit.
func TestConv2DBackwardSameConvMatchesCol2Im(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, k := range []int{3, 5} {
		c := NewConv2D(8, 12, k, k, 1, k/2, Sliced(4), Sliced(4), true, rng)
		for _, r := range []float64{0.25, 0.5, 1} {
			aIn, aOut := c.Active(r)
			x := randTensor(rng, 3, aIn, 6, 5)
			ctx := Train(r, rng)
			c.Forward(ctx, x)
			dy := randTensor(rng, 3, aOut, 6, 5)
			got := c.Backward(ctx, dy)

			spatial, colRows := 30, aIn*k*k
			want := make([]float64, len(got.Data))
			dcol := make([]float64, colRows*spatial)
			for b := 0; b < 3; b++ {
				clear(dcol)
				tensor.GemmTA(colRows, spatial, aOut, c.W.Value.Data, c.In*k*k, dy.Data[b*aOut*spatial:], spatial, dcol, spatial)
				tensor.Col2Im(dcol, aIn, 6, 5, k, k, 1, k/2, want[b*aIn*spatial:])
			}
			for i, w := range want {
				if d := math.Abs(got.Data[i] - w); !(d <= 1e-13) {
					t.Fatalf("k=%d r=%v dx[%d]=%v, Col2Im route %v", k, r, i, got.Data[i], w)
				}
			}
		}
	}
}
