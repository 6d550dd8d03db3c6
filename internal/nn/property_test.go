package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelslicing/internal/tensor"
)

// Property: for any pair of rates ra < rb, the conv output channels that
// both subnets compute agree on the base input exactly as Equation 9
// prescribes — the base output plus the extra input groups' contribution.
func TestQuickConvEquation9(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng)
		rates := []float64{0.25, 0.5, 0.75, 1.0}
		i := rng.Intn(3)
		ra := rates[i]
		rb := rates[i+1+rng.Intn(3-i)]
		aInA, aOutA := c.Active(ra)
		aInB, _ := c.Active(rb)

		xb := tensor.New(1, aInB, 5, 5)
		for j := range xb.Data {
			xb.Data[j] = rng.NormFloat64()
		}
		xa := tensor.New(1, aInA, 5, 5)
		copy(xa.Data, xb.Data[:aInA*25])

		ya := c.Forward(Eval(ra), xa).Clone()
		yb := c.Forward(Eval(rb), xb)

		// Residual contribution: convolve only the extra channels with the
		// corresponding kernel columns.
		extra := NewConv2D(aInB-aInA, aOutA, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
		kk := 9
		for o := 0; o < aOutA; o++ {
			src := c.W.Value.Row(o)
			copy(extra.W.Value.Row(o), src[aInA*kk:aInB*kk])
		}
		xExtra := tensor.New(1, aInB-aInA, 5, 5)
		copy(xExtra.Data, xb.Data[aInA*25:aInB*25])
		res := extra.Forward(Eval(1), xExtra)

		for j := 0; j < aOutA*25; j++ {
			want := ya.Data[j] + res.Data[j]
			if math.Abs(yb.Data[j]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupNorm forward on the active prefix is invariant to the
// existence of wider (inactive) groups — the statistics of prefix groups do
// not depend on the slice rate.
func TestQuickGroupNormPrefixInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
		tensor.InitNormal(g.Gamma.Value, 0.3, rng)
		tensor.InitNormal(g.Beta.Value, 0.3, rng)

		xFull := tensor.New(2, 8, 3, 3)
		for i := range xFull.Data {
			xFull.Data[i] = rng.NormFloat64()
		}
		yFull := g.Forward(Eval(1), xFull).Clone()

		// Same sample content restricted to the first half of the channels.
		xHalf := tensor.New(2, 4, 3, 3)
		for b := 0; b < 2; b++ {
			copy(xHalf.Data[b*4*9:(b+1)*4*9], xFull.Data[b*8*9:b*8*9+4*9])
		}
		yHalf := g.Forward(Eval(0.5), xHalf)
		for b := 0; b < 2; b++ {
			for j := 0; j < 4*9; j++ {
				if math.Abs(yHalf.Data[b*4*9+j]-yFull.Data[b*8*9+j]) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a forward pass at any rate touches only the prefix weights, so
// a backward pass followed by an SGD-like update at rate r must leave all
// weights outside the active block bit-identical.
func TestQuickSlicedTrainingTouchesOnlyPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := NewSequential(
			NewDense(8, 8, Fixed(), Sliced(4), true, rng),
			NewReLU(),
			NewDense(8, 8, Sliced(4), Sliced(4), true, rng),
		)
		rates := []float64{0.25, 0.5, 0.75}
		r := rates[rng.Intn(len(rates))]
		d1 := seq.Layers[0].(*Dense)
		d2 := seq.Layers[2].(*Dense)
		_, aOut1 := d1.Active(r)
		aIn2, aOut2 := d2.Active(r)

		before1 := d1.W.Value.Clone()
		before2 := d2.W.Value.Clone()

		x := tensor.New(2, 8)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		ctx := Train(r, rng)
		y := seq.Forward(ctx, x)
		dy := tensor.New(y.Shape...)
		dy.Fill(1)
		seq.Backward(ctx, dy)
		for _, p := range seq.Params() {
			p.Value.AddScaled(-0.1, p.Grad())
		}
		// Inactive rows/columns must be untouched.
		for o := 0; o < 8; o++ {
			for j := 0; j < 8; j++ {
				if o >= aOut1 && d1.W.Value.At(o, j) != before1.At(o, j) {
					return false
				}
				if (o >= aOut2 || j >= aIn2) && d2.W.Value.At(o, j) != before2.At(o, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: layers must reject malformed inputs loudly rather than
// silently mis-slicing.
func TestLayerInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		fn   func()
	}{
		{"conv rank", func() {
			c := NewConv2D(2, 2, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
			c.Forward(Eval(1), tensor.New(2, 2))
		}},
		{"lstm width", func() {
			l := NewLSTM(4, 4, Fixed(), Fixed(), false, rng)
			l.Forward(Eval(1), tensor.New(2, 2, 3))
		}},
		{"gru rank", func() {
			g := NewGRU(4, 4, Fixed(), Fixed(), false, rng)
			g.Forward(Eval(1), tensor.New(2, 4))
		}},
		{"groupnorm rank", func() {
			g := NewGroupNorm(4, 2, Fixed(), 1e-5)
			g.Forward(Eval(1), tensor.New(2, 4, 4))
		}},
		{"maxpool rank", func() {
			NewMaxPool2D(2, 2).Forward(Eval(1), tensor.New(2, 4))
		}},
		{"timeflatten rank", func() {
			NewTimeFlatten().Forward(Eval(1), tensor.New(2, 4))
		}},
		{"ce label range", func() {
			SoftmaxCrossEntropy(nil, tensor.New(1, 3), []int{7})
		}},
		{"ce batch mismatch", func() {
			SoftmaxCrossEntropy(nil, tensor.New(2, 3), []int{0})
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// Dropout gradients are checked with the `before` hook reseeding the RNG so
// every forward pass draws the identical mask — exercising the hook path of
// CheckGradients.
func TestDropoutGradCheckWithReseed(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	seq := NewSequential(
		NewDense(6, 8, Fixed(), Sliced(4), true, rng),
		NewDropout(0.4),
		NewReLU(),
		NewDense(8, 3, Sliced(4), Fixed(), true, rng),
	)
	x := randTensor(rng, 2, 6)
	ctx := &Context{Training: true, Rate: 1}
	reseed := func() { ctx.RNG = rand.New(rand.NewSource(41)) }
	if err := CheckGradients(seq, ctx, x, reseed, 0); err != nil {
		t.Fatal(err)
	}
}
