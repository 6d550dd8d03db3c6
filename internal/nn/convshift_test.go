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
// (Conv2D.shiftConv): served and trained, it must reproduce the im2col
// lowering bit for bit, and the windowed weight gradient must agree with
// GemmTB over the column matrix to rounding.

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
	st := [1]shiftStage{{conv: c}}
	if ep != nil {
		st[0].ep = *ep
	}
	copy(got.Data, inferShift(&Context{Arena: arena}, x, st[:]).Data)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("in=%d out=%d %dx%d k=%dx%d: shift[%d]=%v, im2col %v", aIn, aOut, h, w, c.KH, c.KW, i, got.Data[i], want.Data[i])
		}
	}
	return nil
}

// trainVsIm2col runs one training pass of a same convolution (Forward, then
// Backward of dy into zeroed gradients) and holds it to the im2col route:
// y bit for bit to GemmEx over Im2Col(x) with the bias epilogue, dx
// bit for bit to the flipped kernel's product over Im2Col(dy), and dW and dB
// within tol of GemmTB over Im2Col(x) and plain plane sums, relative to the
// sum of their terms' magnitudes (a cancelling sum may lose every digit to
// rounding, in either order); dW is compared whole, inactive columns
// included.
func trainVsIm2col(c *Conv2D, r float64, x, dy *tensor.Tensor, tol float64) error {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	aOut := dy.Dim(1)
	taps := c.KH * c.KW
	spatial, colRows, dcolRows, ldW := h*w, aIn*taps, aOut*taps, c.In*taps
	c.W.ZeroGrad()
	var bias []float64
	if c.B != nil {
		c.B.ZeroGrad()
		bias = c.B.Value.Data
	}
	ctx := &Context{Training: true, Rate: r}
	y := c.Forward(ctx, x).Clone()
	dx := c.Backward(ctx, dy)

	wantY := tensor.New(batch, aOut, h, w)
	c.aIn, c.aOut = aIn, aOut
	wf := make([]float64, aIn*dcolRows)
	c.flippedKernel(wf)
	wantDx := make([]float64, len(dx.Data))
	// want*: the gradients; mag*: the sums of their terms' magnitudes.
	wantW, magW := make([]float64, aOut*ldW), make([]float64, aOut*ldW)
	wantB, magB := make([]float64, aOut), make([]float64, aOut)
	col := make([]float64, max(colRows, dcolRows)*spatial)
	absG, absCol := make([]float64, aOut*spatial), make([]float64, colRows*spatial)
	for b := 0; b < batch; b++ {
		g := dy.Data[b*aOut*spatial : (b+1)*aOut*spatial]
		tensor.Im2Col(g, aOut, h, w, c.KH, c.KW, 1, c.Pad, col)
		tensor.GemmEx(aIn, spatial, dcolRows, wf, dcolRows, col, spatial, wantDx[b*aIn*spatial:], spatial, nil)
		tensor.Im2Col(x.Data[b*aIn*spatial:], aIn, h, w, c.KH, c.KW, 1, c.Pad, col)
		tensor.GemmEx(aOut, spatial, colRows, c.W.Value.Data, ldW, col, spatial, wantY.Data[b*aOut*spatial:], spatial, &tensor.Epilogue{RowShift: bias})
		tensor.GemmTB(aOut, colRows, spatial, g, spatial, col, spatial, wantW, ldW)
		for i, v := range g {
			absG[i] = math.Abs(v)
			wantB[i/spatial] += v
			magB[i/spatial] += absG[i]
		}
		for i := range absCol {
			absCol[i] = math.Abs(col[i])
		}
		tensor.GemmTB(aOut, colRows, spatial, absG, spatial, absCol, spatial, magW, ldW)
	}
	where := fmt.Sprintf("in=%d out=%d batch %d %dx%d k=%dx%d", aIn, aOut, batch, h, w, c.KH, c.KW)
	for i, v := range wantY.Data {
		if math.Float64bits(y.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("%s: y[%d]=%v, im2col %v", where, i, y.Data[i], v)
		}
	}
	for i, v := range wantDx {
		if math.Float64bits(dx.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("%s: dx[%d]=%v, im2col %v", where, i, dx.Data[i], v)
		}
	}
	near := func(name string, got, want, mag []float64) error {
		for i, v := range want {
			if d := math.Abs(got[i] - v); !(d <= tol*mag[i]) {
				return fmt.Errorf("%s: %s[%d]=%v, im2col %v (|Δ| %.3g of Σ|terms| %.3g)", where, name, i, got[i], v, d, mag[i])
			}
		}
		return nil
	}
	if err := near("dW", c.W.Grad.Data, wantW, magW); err != nil {
		return err
	}
	if c.B != nil {
		return near("dB", c.B.Grad.Data[:aOut], wantB, magB)
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

// fusedGroupNormVsChain serves c → GroupNorm(normGroups) → ReLU fused (the
// GroupNorm on the shifted conv's product grid) and unfused, and reports the
// first element where they differ.
func fusedGroupNormVsChain(c *Conv2D, x *tensor.Tensor, normGroups int, rng *rand.Rand) error {
	gn := NewGroupNorm(c.Out, normGroups, Fixed(), 1e-5)
	tensor.InitNormal(gn.Gamma.Value, 1, rng)
	tensor.InitNormal(gn.Beta.Value, 1, rng)
	chain := NewSequential(c, gn, NewReLU())
	fused := Fuse(chain)
	if f, ok := fused.(*Sequential).Layers[0].(*FusedConvAct); !ok || f.gn != gn {
		return fmt.Errorf("Conv+GN+ReLU fused to %T, not the grid pass", fused.(*Sequential).Layers[0])
	}
	want := Infer(chain, nil, x)
	got := Infer(fused, &Context{Arena: tensor.NewArena()}, x)
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("out=%d groups %d batch %d %dx%d k=%dx%d: fused[%d]=%v, unfused %v",
				c.Out, normGroups, x.Dim(0), x.Dim(2), x.Dim(3), c.KH, c.KW, i, got.Data[i], v)
		}
	}
	return nil
}

// fusedTrainVsChain trains c → GroupNorm(normGroups) → ReLU once fused (one
// FusedConvAct, the GroupNorm on the conv's grid) and once as the chain, on
// the same x and output gradient from zeroed parameter gradients, and
// reports the first element of the output, dx or a parameter gradient (dW,
// the bias's, dγ, dβ) where the two differ in their bits.
func fusedTrainVsChain(c *Conv2D, x *tensor.Tensor, normGroups int, rng *rand.Rand) error {
	gn := NewGroupNorm(c.Out, normGroups, Fixed(), 1e-5)
	tensor.InitNormal(gn.Gamma.Value, 1, rng)
	tensor.InitNormal(gn.Beta.Value, 1, rng)
	chain := NewSequential(c, gn, NewReLU())
	fused := Fuse(chain)
	if f, ok := fused.(*Sequential).Layers[0].(*FusedConvAct); !ok || f.gn != gn {
		return fmt.Errorf("Conv+GN+ReLU fused to %T, not the grid pass", fused.(*Sequential).Layers[0])
	}
	dy := randTensor(rng, x.Dim(0), c.Out, x.Dim(2), x.Dim(3))
	run := func(l Layer) [][]float64 {
		for _, p := range chain.Params() {
			p.ZeroGrad()
		}
		ctx := &Context{Training: true, Rate: 1}
		out := [][]float64{l.Forward(ctx, x).Clone().Data, l.Backward(ctx, dy).Clone().Data}
		for _, p := range chain.Params() {
			out = append(out, p.Grad.Clone().Data)
		}
		return out
	}
	want, got := run(chain), run(fused)
	names := []string{"y", "dx"}
	for _, p := range chain.Params() {
		names = append(names, "d"+p.Name)
	}
	for k, w := range want {
		for i, v := range w {
			if math.Float64bits(got[k][i]) != math.Float64bits(v) {
				return fmt.Errorf("out=%d groups %d batch %d %dx%d k=%dx%d bias=%v: fused %s[%d]=%v, unfused %v",
					c.Out, normGroups, x.Dim(0), x.Dim(2), x.Dim(3), c.KH, c.KW, c.B != nil, names[k], i, got[k][i], v)
			}
		}
	}
	return nil
}

// runVsDense serves two shifted-row runs into a same conv, next, of c's
// padding, and holds each to its layers served one at a time, dense in and
// out, bit for bit: c → next (c copied out, or with gn normalized with a
// ReLU straight out of its grid, into next's padded image) and a 2×2
// max-pool → next (pooled into it). The batch is one sample more than a
// group holds, so the last group is short.
func runVsDense(c *Conv2D, ep tensor.Epilogue, gn *GroupNorm, h, w int, rng *rand.Rand) error {
	next := NewConv2D(c.Out, 2, c.KH, c.KW, 1, c.Pad, Fixed(), Fixed(), true, rng)
	tensor.InitNormal(next.B.Value, 1, rng)
	batch := next.shiftGeom(shiftGridCols, h, w).g + 1
	ctx := &Context{Arena: tensor.NewArena()}
	pool := NewMaxPool2D(2, 2)
	for _, tc := range []struct {
		edge  string
		first shiftStage
		x     *tensor.Tensor
		dense func(x *tensor.Tensor) *tensor.Tensor
	}{
		{"conv", shiftStage{conv: c, ep: ep, gn: gn}, randTensor(rng, batch, c.In, h, w),
			func(x *tensor.Tensor) *tensor.Tensor { return shiftStage{conv: c, ep: ep, gn: gn}.infer(ctx, x) }},
		{"pool", shiftStage{pool: pool}, randTensor(rng, batch, c.Out, 2*h, 2*w),
			func(x *tensor.Tensor) *tensor.Tensor { return pool.Infer(ctx, x) }},
	} {
		want := next.Infer(ctx, tc.dense(tc.x))
		got := inferShift(ctx, tc.x, []shiftStage{tc.first, next.stage(ctx)})
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("%s→conv run, in=%d out=%d batch %d %dx%d k=%dx%d gn=%v: run[%d]=%v, layer by layer %v",
					tc.edge, c.In, c.Out, batch, h, w, c.KH, c.KW, gn != nil, i, got.Data[i], v)
			}
		}
	}
	return nil
}

// FuzzConvShift decodes a conv shape from bytes and holds the shifted-row
// lowering to the im2col one: the served product on a packed weight, then a
// training pass (Forward and Backward, with a bias when seed&4 is set). It
// then serves and trains the conv fused with a GroupNorm and ReLU (norm
// groups the largest divisor of the output channels up to 1+mask%8) against
// the unfused chain, bit for bit. Last, it serves the conv (copied out,
// then on the grid pass) and a 2×2 max-pool as runs into a same conv,
// handing over through its padded image, against the layers one at a time
// (runVsDense). Planes of every
// width from 1 to 17 reach both the grid kernels' block bodies and their Go
// twins.
func FuzzConvShift(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(16), uint8(16), uint8(0), uint8(0), int64(1))
	f.Add(uint8(32), uint8(5), uint8(4), uint8(4), uint8(1), uint8(37), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(63), int64(3))
	f.Add(uint8(4), uint8(3), uint8(2), uint8(9), uint8(1), uint8(4), int64(4))
	f.Add(uint8(1), uint8(0), uint8(11), uint8(0), uint8(0), uint8(0), int64(-26)) // dB sums cancel
	f.Add(uint8(6), uint8(7), uint8(4), uint8(5), uint8(0), uint8(2), int64(13))   // 5×6 planes: the Go twins, with a bias
	f.Add(uint8(9), uint8(15), uint8(7), uint8(7), uint8(1), uint8(7), int64(7))   // 8×8, batch 4, 5×5 kernel, with a bias
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
		if seed&4 != 0 {
			c.B = NewParam("conv.B", false, aOut)
			tensor.InitNormal(c.B.Value, 1, rng)
		}
		if err := trainVsIm2col(c, 1, x, randTensor(rng, x.Dim(0), aOut, hh, ww), 1e-12); err != nil {
			t.Fatal(err)
		}
		groups := 1 + int(mask)%8
		for aOut%groups != 0 {
			groups--
		}
		if err := fusedGroupNormVsChain(c, x, groups, rng); err != nil {
			t.Fatal(err)
		}
		if err := fusedTrainVsChain(c, x, groups, rng); err != nil {
			t.Fatal(err)
		}
		if err := runVsDense(c, *randEpilogue(rng, m, aOut), nil, hh, ww, rng); err != nil {
			t.Fatal(err)
		}
		gn := NewGroupNorm(aOut, groups, Fixed(), 1e-5)
		tensor.InitNormal(gn.Gamma.Value, 1, rng)
		tensor.InitNormal(gn.Beta.Value, 1, rng)
		if err := runVsDense(c, c.stage(nil).ep, gn, hh, ww, rng); err != nil {
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
			ctx := &Context{Rate: r, Arena: arena}
			b.Run(fmt.Sprintf("conv%d_%dx%d_%d-%d_r%g", li+1, s.hw, s.hw, aIn, aOut, r), func(b *testing.B) {
				var im2col, shift time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					c.inferIm2col(arena, tensor.TierExact, x, arena.GetUninit(8, aOut, s.hw, s.hw), pw, nil)
					t1 := time.Now()
					inferShift(ctx, x, []shiftStage{{conv: c}})
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
