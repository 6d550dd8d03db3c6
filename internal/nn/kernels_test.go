package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// Tests and micro-benchmarks of the three non-GEMM passes of the sliced
// forward path: GroupNorm, max pooling and (through Conv2D) im2col.

// groupNormScalar is the GroupNorm forward pass as it was before the
// primitives of tensor/reduce.go: one serial sum per statistic and a channel
// lookup by division per element. It is the oracle the kernel is held to.
func groupNormScalar(g *GroupNorm, x *tensor.Tensor, aC, batch, hw int, relu bool) []float64 {
	gs := g.C / g.NormGroups
	ag := aC / gs
	n := gs * hw
	plane := aC * hw
	gamma, beta := g.Gamma.Value.Data, g.Beta.Value.Data
	y := make([]float64, len(x.Data))
	for b := 0; b < batch; b++ {
		src := x.Data[b*plane : (b+1)*plane]
		dst := y[b*plane : (b+1)*plane]
		for gi := 0; gi < ag; gi++ {
			seg := src[gi*n : (gi+1)*n]
			mu := 0.0
			for _, v := range seg {
				mu += v
			}
			mu /= float64(n)
			va := 0.0
			for _, v := range seg {
				d := v - mu
				va += d * d
			}
			va /= float64(n)
			is := 1 / math.Sqrt(va+g.Eps)
			for j, v := range seg {
				ch := gi*gs + j/hw
				o := gamma[ch]*((v-mu)*is) + beta[ch]
				if relu && !(o > 0) {
					o = 0
				}
				dst[gi*n+j] = o
			}
		}
	}
	return y
}

func TestGroupNormMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	// 16 channels in 4 slice groups; 16 norm groups is group size 1, 4 is
	// group size 4.
	for _, normGroups := range []int{16, 4} {
		g := NewGroupNorm(16, normGroups, Sliced(4), 1e-5)
		for i := range g.Gamma.Value.Data {
			g.Gamma.Value.Data[i] = 0.5 + rng.Float64()
			g.Beta.Value.Data[i] = rng.NormFloat64()
		}
		for _, r := range inferRates {
			aC := g.Spec.Active(r, g.C)
			for _, x := range []*tensor.Tensor{
				randTensor(rng, 3, aC),       // rank 2: hw = 1
				randTensor(rng, 2, aC, 1, 3), // planes below the vector width
				randTensor(rng, 2, aC, 5, 7), // odd planes: scalar tails
				randTensor(rng, 2, aC, 8, 8),
			} {
				batch, hw := normShape("GroupNorm", x, aC)
				arena := tensor.NewArena()
				for _, relu := range []bool{false, true} {
					want := groupNormScalar(g, x, aC, batch, hw, relu)
					got := g.inferAct(&Context{Rate: r, Arena: arena}, x, relu)
					for i := range want {
						if d := math.Abs(got.Data[i] - want[i]); !(d <= 1e-12) {
							t.Fatalf("groups=%d r=%v shape=%v relu=%v [%d]: %v, oracle %v", normGroups, r, x.Shape, relu, i, got.Data[i], want[i])
						}
					}
					arena.Reset()
				}
				// Forward is the same kernel: y bit for bit, x̂ = (x−μ)/σ.
				y := g.Forward(&Context{Rate: r}, x)
				inf := g.Infer(&Context{Rate: r}, x)
				for i := range y.Data {
					if y.Data[i] != inf.Data[i] {
						t.Fatalf("groups=%d r=%v shape=%v: Forward[%d]=%v, Infer=%v", normGroups, r, x.Shape, i, y.Data[i], inf.Data[i])
					}
				}
			}
		}
	}
}

func TestMaxPool2x2MatchesGeneralLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	m := NewMaxPool2D(2, 2)
	// Widths give outW 1–13: below, at and past the vector kernel's four
	// outputs, with and without a remainder.
	for _, hw := range [][2]int{
		{2, 2}, {3, 3}, {5, 7}, {7, 4}, {2, 9}, {16, 16}, {9, 2},
		{2, 8}, {3, 10}, {4, 14}, {5, 17}, {2, 19}, {6, 24}, {3, 27},
	} {
		h, w := hw[0], hw[1]
		planes := 3
		x := randTensor(rng, 1, planes, h, w)
		// Ties, signed zeros, NaN and infinities exercise the first-greater
		// rule.
		for i := range x.Data {
			switch rng.Intn(10) {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = math.NaN()
			case 2:
				x.Data[i] = math.Inf(-1)
			case 3:
				x.Data[i] = math.Copysign(0, -1)
			case 4:
				x.Data[i] = math.Inf(1)
			}
		}
		outH, outW := tensor.ConvOutSize(h, 2, 2, 0), tensor.ConvOutSize(w, 2, 2, 0)
		n := planes * outH * outW
		slow, slowArg := make([]float64, n), make([]int, n)
		m.poolWindows(slow, denseLayout(1, outH, outW), slowArg, x.Data, planes, h, w, outH, outW)
		// vec off is the Go loop a host without AVX runs.
		for _, vec := range []bool{false, true} {
			fast, fastArg := make([]float64, n), make([]int, n)
			pool2x2(fast, denseLayout(1, outH, outW), fastArg, x.Data, planes, h, w, outH, outW, vec)
			noArg := make([]float64, n)
			pool2x2(noArg, denseLayout(1, outH, outW), nil, x.Data, planes, h, w, outH, outW, vec)
			for i := range fast {
				if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) || fastArg[i] != slowArg[i] {
					t.Fatalf("%dx%d vec=%v out[%d]: fast %v@%d, general %v@%d", h, w, vec, i, fast[i], fastArg[i], slow[i], slowArg[i])
				}
				if math.Float64bits(noArg[i]) != math.Float64bits(slow[i]) {
					t.Fatalf("%dx%d vec=%v out[%d]: fast without argmax %v, general %v", h, w, vec, i, noArg[i], slow[i])
				}
			}
		}
	}
	// A plane smaller than the window is clipped, not overrun.
	y := m.Infer(nil, tensor.FromSlice([]float64{3, 5, 4}, 1, 1, 1, 3))
	if len(y.Data) != 1 || y.Data[0] != 5 {
		t.Fatalf("1x3 plane pooled to %v, want [5]", y.Data)
	}
}

// FuzzMaxPool holds pool2x2, with and without argmax and with the vector
// kernel on and off, to the general window loop: outputs bit for bit,
// argmax exactly. Every tap is decoded from one byte of the input into NaN
// (with a payload), ±0, ±Inf or a small finite value, so ties and NaN
// placements are dense.
func FuzzMaxPool(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0), uint8(6), uint8(19), []byte{7, 7, 0, 1, 1, 0, 200, 3, 64, 65, 66})
	f.Add(uint8(3), uint8(1), uint8(13), []byte{255, 128, 2, 2, 9})
	f.Add(uint8(1), uint8(19), uint8(1), []byte{4, 5})
	f.Fuzz(func(t *testing.T, p, h, w uint8, taps []byte) {
		planes, hh, ww := 1+int(p)%4, 1+int(h)%20, 1+int(w)%20
		x := make([]float64, planes*hh*ww)
		for i := range x {
			var b byte
			if len(taps) > 0 {
				b = taps[i%len(taps)] + byte(i/len(taps))
			}
			x[i] = poolTap(b)
		}
		m := NewMaxPool2D(2, 2)
		outH, outW := tensor.ConvOutSize(hh, 2, 2, 0), tensor.ConvOutSize(ww, 2, 2, 0)
		n := planes * outH * outW
		want, wantArg := make([]float64, n), make([]int, n)
		m.poolWindows(want, denseLayout(1, outH, outW), wantArg, x, planes, hh, ww, outH, outW)
		if hh < 2 || ww < 2 {
			return // pool clips these through the general loop itself
		}
		for _, vec := range []bool{false, true} {
			got, gotArg := make([]float64, n), make([]int, n)
			pool2x2(got, denseLayout(1, outH, outW), gotArg, x, planes, hh, ww, outH, outW, vec)
			noArg := make([]float64, n)
			pool2x2(noArg, denseLayout(1, outH, outW), nil, x, planes, hh, ww, outH, outW, vec)
			for i := range want {
				wb := math.Float64bits(want[i])
				if math.Float64bits(got[i]) != wb || gotArg[i] != wantArg[i] || math.Float64bits(noArg[i]) != wb {
					t.Fatalf("%d×%d×%d vec=%v out[%d]: argmax path %v@%d, no-argmax %v, general %v@%d",
						planes, hh, ww, vec, i, got[i], gotArg[i], noArg[i], want[i], wantArg[i])
				}
			}
		}
	})
}

// poolTap decodes one fuzz byte into a tap value.
func poolTap(b byte) float64 {
	switch b % 8 {
	case 0:
		return math.Float64frombits(0x7ff8000000000000 | uint64(b)<<20) // NaN with a payload
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	}
	return float64(int(b)/8%5 - 2)
}

// TestConv1x1SkipsIm2Col pins the point-wise bypass: served, the per-sample
// lowering hands the input plane to the GEMM directly, with no column
// scratch in the arena; trained, Forward reads x in place and Backward
// reads x and accumulates dx in place. y, dx, dW and dB are bit-identical
// to the im2col route (pointwiseIm2colRoute) at every rate, with a bias and
// without.
func TestConv1x1SkipsIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, bias := range []bool{false, true} {
		c := NewConv2D(8, 12, 1, 1, 1, 0, Sliced(4), Sliced(4), bias, rng)
		if bias {
			tensor.InitNormal(c.B.Value, 1, rng)
		}
		for _, r := range inferRates {
			aIn, aOut := c.Active(r)
			x := randTensor(rng, 3, aIn, 5, 5)
			checkInferMatchesForward(t, "Conv1x1 per-sample", c, x, r, 0)
			arena := tensor.NewArena()
			c.Infer(&Context{Rate: r, Arena: arena}, x)
			arena.Reset()
			if got, want := arena.HighWaterBytes(), int64(8*3*aOut*25); got != want {
				t.Fatalf("r=%v: arena holds %d bytes, want %d (the output alone)", r, got, want)
			}

			dy := randTensor(rng, 3, aOut, 5, 5)
			c.W.ZeroGrad()
			if bias {
				c.B.ZeroGrad()
			}
			ctx := &Context{Training: true, Rate: r, Arena: tensor.NewArena()}
			y := c.Forward(ctx, x).Clone()
			dx := c.Backward(ctx, dy)
			got, names := [][]float64{y.Data, dx.Data, c.W.Grad().Data}, []string{"y", "dx", "dW", "dB"}
			if bias {
				got = append(got, c.B.Grad().Data)
			}
			want := pointwiseIm2colRoute(c, aIn, aOut, x, dy)
			for k, name := range names[:len(got)] {
				for i, v := range want[k] {
					if math.Float64bits(got[k][i]) != math.Float64bits(v) {
						t.Fatalf("bias=%v r=%v: %s[%d]=%v, im2col route %v", bias, r, name, i, got[k][i], v)
					}
				}
			}
		}
	}
}

// pointwiseIm2colRoute is the im2col route of a point-wise conv's training
// pass at widths aIn → aOut: per sample, y over Im2Col(x) with the bias as
// the epilogue, dW += dy·colᵀ, and dcol = Wᵀ·dy scattered into a zeroed dx
// by Col2Im; per batch part (as Backward cuts the batch) a private dW and
// dB, added into the gradients in part order, dW's zeros skipped. It returns
// y, dx, dW (row stride In) and dB.
func pointwiseIm2colRoute(c *Conv2D, aIn, aOut int, x, dy *tensor.Tensor) [4][]float64 {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	spatial := h * w
	var bias []float64
	if c.B != nil {
		bias = c.B.Value.Data
	}
	y, dx := make([]float64, batch*aOut*spatial), make([]float64, batch*aIn*spatial)
	dW, dB := make([]float64, aOut*c.In), make([]float64, aOut)
	col, dcol := make([]float64, aIn*spatial), make([]float64, aIn*spatial)
	nw := maxWorkers(batch)
	for i := 0; i < nw; i++ {
		dw, db := make([]float64, aOut*aIn), make([]float64, aOut)
		for b, end := span(batch, nw, i); b < end; b++ {
			tensor.Im2Col(x.Data[b*aIn*spatial:], aIn, h, w, 1, 1, 1, 0, col)
			tensor.GemmEx(aOut, spatial, aIn, c.W.Value.Data, c.In, col, spatial, y[b*aOut*spatial:], spatial, &tensor.Epilogue{RowShift: bias})
			g := dy.Data[b*aOut*spatial : (b+1)*aOut*spatial]
			tensor.GemmTB(aOut, aIn, spatial, g, spatial, col, spatial, dw, aIn)
			clear(dcol)
			tensor.GemmTA(aIn, spatial, aOut, c.W.Value.Data, c.In, g, spatial, dcol, spatial)
			tensor.Col2Im(dcol, aIn, h, w, 1, 1, 1, 0, dx[b*aIn*spatial:])
			addBiasGrad(db, g, 1, spatial, spatial, spatial)
		}
		for oc := 0; oc < aOut; oc++ {
			for j, v := range dw[oc*aIn : (oc+1)*aIn] {
				if v != 0 {
					dW[oc*c.In+j] += v
				}
			}
			dB[oc] += db[oc]
		}
	}
	return [4][]float64{y, dx, dW, dB}
}

// TestKernelPassesAllocFree: on an arena-backed context the three passes
// allocate nothing in steady state.
func TestKernelPassesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	arena := tensor.NewArena()
	ctx := &Context{Rate: 0.5, Arena: arena}
	conv := Conv3x3(8, 8, Sliced(4), Sliced(4), rng)
	norm := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	pool := NewMaxPool2D(2, 2)
	x := randTensor(rng, 4, 4, 8, 8)
	for name, pass := range map[string]func(){
		"Conv2D.Infer":    func() { conv.Infer(ctx, x); arena.Reset() },
		"GroupNorm.Infer": func() { norm.inferAct(ctx, x, true); arena.Reset() },
		"MaxPool2D.Infer": func() { pool.Infer(ctx, x); arena.Reset() },
	} {
		pass()
		pass()
		if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
			t.Errorf("%s allocates %v times per pass, want 0", name, allocs)
		}
	}
}

// vggMiniActs are the activations VGG13Mini's eight GroupNorm layers see at
// full width — channels and square spatial extent, batch 8 as in the
// benchmark harness; maxpool follows the fourth and the sixth.
var vggMiniActs = []struct{ channels, hw int }{
	{8, 16}, {8, 16}, {16, 16}, {16, 16}, {32, 8}, {32, 8}, {64, 4}, {64, 4},
}

func BenchmarkGroupNormInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	arena := tensor.NewArena()
	for li, s := range vggMiniActs {
		g := NewGroupNorm(s.channels, 4, Sliced(4), 1e-5)
		for _, r := range []float64{0.25, 1} {
			x := randTensor(rng, 8, g.Spec.Active(r, g.C), s.hw, s.hw)
			ctx := &Context{Rate: r, Arena: arena}
			b.Run(fmt.Sprintf("norm%d_%v_r%g", li+1, x.Shape, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g.inferAct(ctx, x, true)
					arena.Reset()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Size()), "ns/element")
			})
		}
	}
}

func BenchmarkMaxPoolInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	arena := tensor.NewArena()
	m := NewMaxPool2D(2, 2)
	for li, s := range vggMiniActs {
		for _, r := range []float64{0.25, 1} {
			x := randTensor(rng, 8, int(float64(s.channels)*r), s.hw, s.hw)
			ctx := &Context{Rate: r, Arena: arena}
			b.Run(fmt.Sprintf("pool%d_%v_r%g", li+1, x.Shape, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Infer(ctx, x)
					arena.Reset()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Size()), "ns/element")
			})
		}
	}
}
