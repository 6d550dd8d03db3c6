package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"modelslicing/internal/tensor"
)

// Oracles and the shape sweep of the shifted-row conv lowering
// (Conv2D.inferShift): it must reproduce the im2col lowering bit for bit.

// shiftVsIm2col runs one same convolution through both served lowerings on a
// packed weight and reports the first element where they differ.
func shiftVsIm2col(c *Conv2D, x *tensor.Tensor, aOut int, ep *tensor.Epilogue) error {
	aIn, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	colRows := aIn * c.KH * c.KW
	pw := tensor.PackA(aOut, colRows, c.W.Value.Data, c.In*c.KH*c.KW)
	arena := tensor.NewArena()
	want := tensor.New(x.Dim(0), aOut, h, w)
	got := tensor.New(x.Dim(0), aOut, h, w)
	for i := range got.Data {
		got.Data[i] = math.NaN() // every element must be written
	}
	c.inferIm2col(arena, tensor.TierExact, x, want, pw, ep)
	c.inferShift(arena, x, got, pw, ep)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("in=%d out=%d %dx%d k=%dx%d: shift[%d]=%v, im2col %v", aIn, aOut, h, w, c.KH, c.KW, i, got.Data[i], want.Data[i])
		}
	}
	return nil
}

// randEpilogue builds the conv epilogue whose fields are selected by the four
// bits of mask (alpha, row scale, row shift, ReLU). Column vectors index the
// product's columns, which the two lowerings lay out differently; the tensor
// package pins those on the shifted product itself.
func randEpilogue(rng *rand.Rand, mask, m int) *tensor.Epilogue {
	vec := func() []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	ep := &tensor.Epilogue{ReLU: mask&8 != 0}
	if mask&1 != 0 {
		ep.Alpha = 0.5 + rng.Float64()
	}
	if mask&2 != 0 {
		ep.RowScale = vec()
	}
	if mask&4 != 0 {
		ep.RowShift = vec()
	}
	return ep
}

// TestConvShiftMatchesIm2col is the property test of the lowering: random
// channel counts (odd aOut included, and k = aIn·9 past one 256-row k-panel),
// planes 1…17 on a side (narrower than the kernel included), 3×3 and 5×5
// kernels, every conv epilogue mask.
func TestConvShiftMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	iters := 300
	if testing.Short() {
		iters = 80
	}
	for it := 0; it < iters; it++ {
		aIn, aOut := 1+rng.Intn(12), 1+rng.Intn(9)
		if it%10 == 0 {
			aIn = 29 + rng.Intn(8) // k = aIn·9 > 256: two k-panels
		}
		h, w := 1+rng.Intn(17), 1+rng.Intn(17)
		pad := 1
		if it%7 == 0 {
			pad = 2
		}
		mask := it % 16
		k := 2*pad + 1
		c := NewConv2D(aIn, aOut, k, k, 1, pad, Fixed(), Fixed(), false, rng)
		x := randTensor(rng, 1+rng.Intn(5), aIn, h, w)
		if err := shiftVsIm2col(c, x, aOut, randEpilogue(rng, mask, aOut)); err != nil {
			t.Fatalf("mask %04b: %v", mask, err)
		}
	}
}

// FuzzConvShift decodes a conv shape from bytes and holds the shifted-row
// lowering to the im2col one.
func FuzzConvShift(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(16), uint8(16), uint8(0), uint8(0), int64(1))
	f.Add(uint8(32), uint8(5), uint8(4), uint8(4), uint8(1), uint8(37), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(63), int64(3))
	f.Add(uint8(4), uint8(3), uint8(2), uint8(9), uint8(1), uint8(4), int64(4))
	f.Fuzz(func(t *testing.T, in, out, h, w, pad, mask uint8, seed int64) {
		aIn, aOut := 1+int(in)%40, 1+int(out)%17
		hh, ww := 1+int(h)%17, 1+int(w)%17
		p := 1 + int(pad)%2
		m := int(mask) % 16
		rng := rand.New(rand.NewSource(seed))
		c := NewConv2D(aIn, aOut, 2*p+1, 2*p+1, 1, p, Fixed(), Fixed(), false, rng)
		x := randTensor(rng, 1+int(seed&3), aIn, hh, ww)
		if err := shiftVsIm2col(c, x, aOut, randEpilogue(rng, m, aOut)); err != nil {
			t.Fatal(err)
		}
	})
}

// vggMiniConvs are VGG13Mini's eight 3×3 convolutions: input and output
// channels at full width and the square plane they run on.
var vggMiniConvs = []struct{ in, out, hw int }{
	{3, 8, 16}, {8, 8, 16}, {8, 16, 16}, {16, 16, 16},
	{16, 32, 8}, {32, 32, 8}, {32, 64, 4}, {64, 64, 4},
}

// BenchmarkConvInferLowering is the sweep behind the served conv routing:
// every VGG13Mini conv at batch 8 and three rates, the im2col and the
// shifted-row lowering on the same packed weight. One op runs both lowerings back to back,
// so host drift hits them alike; the metrics are µs per batch for each and
// their ratio (shift/im2col, below 1 where the shifted rows win).
func BenchmarkConvInferLowering(b *testing.B) {
	rng := rand.New(rand.NewSource(302))
	arena := tensor.NewArena()
	for li, s := range vggMiniConvs {
		inSpec := Sliced(4)
		if li == 0 {
			inSpec = Fixed()
		}
		c := Conv3x3(s.in, s.out, inSpec, Sliced(4), rng)
		for _, r := range []float64{0.25, 0.5, 1} {
			aIn, aOut := c.Active(r)
			x := randTensor(rng, 8, aIn, s.hw, s.hw)
			pw := tensor.PackA(aOut, aIn*9, c.W.Value.Data, s.in*9)
			b.Run(fmt.Sprintf("conv%d_%dx%d_%d-%d_r%g", li+1, s.hw, s.hw, aIn, aOut, r), func(b *testing.B) {
				var im2col, shift time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					c.inferIm2col(arena, tensor.TierExact, x, arena.GetUninit(8, aOut, s.hw, s.hw), pw, nil)
					t1 := time.Now()
					c.inferShift(arena, x, arena.GetUninit(8, aOut, s.hw, s.hw), pw, nil)
					shift += time.Since(t1)
					im2col += t1.Sub(t0)
					arena.Reset()
				}
				b.ReportMetric(float64(im2col.Microseconds())/float64(b.N), "im2col-µs")
				b.ReportMetric(float64(shift.Microseconds())/float64(b.N), "shift-µs")
				b.ReportMetric(float64(shift)/float64(im2col), "shift/im2col")
			})
		}
	}
}
