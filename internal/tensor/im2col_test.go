package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refConv2D is a direct (nested loop) convolution used as the reference for
// the im2col+GEMM path.
func refConv2D(src []float64, c, h, w int, kernel []float64, outC, kh, kw, stride, pad int) ([]float64, int, int) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	dst := make([]float64, outC*outH*outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for ic := 0; ic < c; ic++ {
					for ki := 0; ki < kh; ki++ {
						for kj := 0; kj < kw; kj++ {
							iy := oy*stride - pad + ki
							ix := ox*stride - pad + kj
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							s += kernel[((oc*c+ic)*kh+ki)*kw+kj] * src[(ic*h+iy)*w+ix]
						}
					}
				}
				dst[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
	return dst, outH, outW
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(32, 3, 1, 1) != 32 {
		t.Fatal("same-padding 3x3 should preserve size")
	}
	if ConvOutSize(32, 2, 2, 0) != 16 {
		t.Fatal("2x2 stride-2 should halve size")
	}
	if ConvOutSize(7, 7, 1, 0) != 1 {
		t.Fatal("full-size kernel should give 1")
	}
}

// TestIm2ColGemmMatchesDirectConv holds Im2Col + Gemm to the direct
// convolution. The column matrix starts as garbage, so a padding tap Im2Col
// leaves unwritten shows in the product.
func TestIm2ColGemmMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ c, h, w, outC, kh, kw, stride, pad int }{
		{1, 4, 4, 1, 3, 3, 1, 1},
		{3, 8, 8, 4, 3, 3, 1, 1},
		{2, 5, 7, 3, 3, 3, 2, 1},
		{4, 6, 6, 2, 1, 1, 1, 0},
		{2, 6, 6, 3, 2, 2, 2, 0},
		{2, 6, 6, 3, 3, 3, 1, 1},
		{3, 5, 7, 3, 3, 3, 2, 1},
		{1, 4, 4, 3, 2, 2, 2, 0},
		{2, 8, 8, 3, 1, 1, 1, 0},
		{4, 6, 6, 3, 5, 5, 1, 2},
		{2, 3, 3, 3, 3, 3, 1, 3}, // pad > kernel reach: all-padding edge rows
		{1, 1, 1, 3, 6, 6, 1, 3}, // kernel reach exceeds w+pad: lo must clamp to outW
		{1, 2, 2, 3, 5, 5, 2, 2}, // strided with taps past the padded row
	}
	for _, tc := range cases {
		src := randSlice(tc.c*tc.h*tc.w, rng)
		kernel := randSlice(tc.outC*tc.c*tc.kh*tc.kw, rng)
		want, outH, outW := refConv2D(src, tc.c, tc.h, tc.w, kernel, tc.outC, tc.kh, tc.kw, tc.stride, tc.pad)
		colRows := tc.c * tc.kh * tc.kw
		col := randSlice(colRows*outH*outW, rng)
		gotH, gotW := Im2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, col)
		if gotH != outH || gotW != outW {
			t.Fatalf("Im2Col out size (%d,%d), want (%d,%d)", gotH, gotW, outH, outW)
		}
		got := make([]float64, tc.outC*outH*outW)
		Gemm(tc.outC, outH*outW, colRows, kernel, colRows, col, outH*outW, got, outH*outW)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-10) {
				t.Fatalf("case %+v: im2col conv[%d] = %v, want %v", tc, i, got[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for all x, y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity backprop
// relies on.
func TestQuickCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, h, w := 1+r.Intn(3), 3+r.Intn(4), 3+r.Intn(4)
		kh, kw := 1+r.Intn(3), 1+r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		outH := ConvOutSize(h, kh, stride, pad)
		outW := ConvOutSize(w, kw, stride, pad)
		if outH <= 0 || outW <= 0 {
			return true
		}
		rows := c * kh * kw
		x := randSlice(c*h*w, r)
		y := randSlice(rows*outH*outW, r)
		cx := make([]float64, rows*outH*outW)
		Im2Col(x, c, h, w, kh, kw, stride, pad, cx)
		lhs := 0.0
		for i := range cx {
			lhs += cx[i] * y[i]
		}
		xg := make([]float64, c*h*w)
		Col2Im(y, c, h, w, kh, kw, stride, pad, xg)
		rhs := 0.0
		for i := range xg {
			rhs += xg[i] * x[i]
		}
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	c, h, w := 1, 3, 3
	kh, kw, stride, pad := 3, 3, 1, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	col := make([]float64, c*kh*kw*outH*outW)
	for i := range col {
		col[i] = 1
	}
	dst := make([]float64, c*h*w)
	dst[0] = 100
	Col2Im(col, c, h, w, kh, kw, stride, pad, dst)
	if dst[0] <= 100 {
		t.Fatalf("Col2Im must accumulate, got dst[0]=%v", dst[0])
	}
}

func TestIm2ColSlicedChannelsPrefix(t *testing.T) {
	// Unrolling only the first 2 of 4 channels must match unrolling a
	// 2-channel image — the foundation of channel slicing in Conv2D.
	rng := rand.New(rand.NewSource(11))
	h, w, kh, kw := 5, 5, 3, 3
	full := randSlice(4*h*w, rng)
	outH := ConvOutSize(h, kh, 1, 1)
	outW := ConvOutSize(w, kw, 1, 1)
	colSliced := make([]float64, 2*kh*kw*outH*outW)
	Im2Col(full, 2, h, w, kh, kw, 1, 1, colSliced)
	colSmall := make([]float64, 2*kh*kw*outH*outW)
	Im2Col(full[:2*h*w], 2, h, w, kh, kw, 1, 1, colSmall)
	for i := range colSliced {
		if colSliced[i] != colSmall[i] {
			t.Fatal("prefix-channel Im2Col mismatch")
		}
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(1000)
	InitUniform(x, 0.5, rng)
	if x.MaxAbs() > 0.5 {
		t.Fatal("InitUniform exceeded bound")
	}
	InitNormal(x, 1.0, rng)
	m := x.Mean()
	if m > 0.15 || m < -0.15 {
		t.Fatalf("InitNormal mean too far from 0: %v", m)
	}
	InitXavier(x, 100, 100, rng)
	if x.MaxAbs() > 0.2449490 {
		t.Fatalf("InitXavier exceeded bound sqrt(6/200): %v", x.MaxAbs())
	}
	InitHe(x, 50, rng)
	if !x.AllFinite() {
		t.Fatal("InitHe produced non-finite values")
	}
}

// TestIm2ColIntoMatchesPerSample lowers a batch one sample at a time into one
// reused column buffer, as the conv layers do, over the edge shapes of
// TestIm2ColGemmMatchesDirectConv. Each sample's matrix must equal a fresh
// lowering of that sample into a zeroed buffer exactly, so nothing of the
// previous sample (or the garbage the buffer starts with) survives, and the
// tail past the matrix must stay untouched. A lowering allocates nothing.
func TestIm2ColIntoMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ batch, c, h, w, kh, kw, stride, pad int }{
		{3, 2, 6, 6, 3, 3, 1, 1},
		{2, 3, 5, 7, 3, 3, 2, 1},
		{4, 1, 4, 4, 2, 2, 2, 0},
		{2, 2, 8, 8, 1, 1, 1, 0},
		{1, 4, 6, 6, 5, 5, 1, 2},
		{2, 2, 3, 3, 3, 3, 1, 3}, // pad > kernel reach: all-padding edge rows
		{2, 1, 1, 1, 6, 6, 1, 3}, // kernel reach exceeds w+pad: lo must clamp to outW
		{1, 1, 2, 2, 5, 5, 2, 2}, // strided with taps past the padded row
	}
	for _, tc := range cases {
		outH := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
		outW := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
		n := tc.c * tc.kh * tc.kw * outH * outW
		reused := randSlice(n+3, rng) // garbage start and a guarded tail
		tail := append([]float64(nil), reused[n:]...)
		single := make([]float64, n)
		for b := 0; b < tc.batch; b++ {
			src := randSlice(tc.c*tc.h*tc.w, rng)
			Im2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, reused)
			clear(single)
			Im2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, single)
			for i, want := range single {
				if got := reused[i]; got != want {
					t.Fatalf("%+v sample %d col[%d,%d] = %g, want %g",
						tc, b, i/(outH*outW), i%(outH*outW), got, want)
				}
			}
			for i, want := range tail {
				if got := reused[n+i]; got != want {
					t.Fatalf("%+v sample %d wrote past the matrix at +%d: %g, want %g", tc, b, i, got, want)
				}
			}
		}
	}
	src, col := randSlice(4*8*8, rng), make([]float64, 4*9*8*8)
	if allocs := testing.AllocsPerRun(20, func() { Im2Col(src, 4, 8, 8, 3, 3, 1, 1, col) }); allocs != 0 {
		t.Fatalf("Im2Col allocates %v times per call, want 0", allocs)
	}
}

// vggMiniConvShapes are the eight convolution inputs of VGG13Mini at full
// width: channels and the square spatial extent. The first is the unsliced
// network input.
var vggMiniConvShapes = []struct {
	channels, hw int
	sliced       bool
}{
	{3, 16, false}, {8, 16, true}, {8, 16, true}, {16, 16, true},
	{16, 8, true}, {32, 8, true}, {32, 4, true}, {64, 4, true},
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for li, s := range vggMiniConvShapes {
		for _, r := range []float64{0.25, 1} {
			c := s.channels
			if s.sliced {
				c = int(float64(c) * r)
			}
			src := randSlice(c*s.hw*s.hw, rng)
			col := make([]float64, c*9*s.hw*s.hw)
			b.Run(fmt.Sprintf("conv%d_%dx%dx%d_r%g", li+1, c, s.hw, s.hw, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Im2Col(src, c, s.hw, s.hw, 3, 3, 1, 1, col)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/element")
			})
		}
	}
}
