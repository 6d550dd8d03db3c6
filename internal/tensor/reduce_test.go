package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits is bit equality, except that any two NaNs match: which payload an
// add of two NaNs keeps is the one thing the vector and scalar forms may
// differ in, and nothing downstream reads it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// reduceInputs returns, for length n, random data plus copies with the
// special values planted at every position class the kernels distinguish
// (block of 16, block of 4, scalar tail).
func reduceInputs(rng *rand.Rand, n int) [][]float64 {
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64() * 3
	}
	out := [][]float64{base}
	negZero := math.Copysign(0, -1)
	for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero} {
		for _, at := range []int{0, n / 2, n - 1} {
			if n == 0 {
				continue
			}
			x := append([]float64(nil), base...)
			x[at] = special
			out = append(out, x)
		}
	}
	if n > 0 {
		zeros := make([]float64, n)
		for i := range zeros {
			zeros[i] = negZero
		}
		out = append(out, zeros)
	}
	return out
}

// TestReducePrimitivesVectorMatchesScalar pins the contract of reduce.go:
// the AVX kernels and the Go loops agree bit for bit at every length that
// crosses a block boundary, special values included.
func TestReducePrimitivesVectorMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Skip("no vector kernel on this host")
	}
	rng := rand.New(rand.NewSource(77))
	for n := 0; n <= 67; n++ {
		for _, x := range reduceInputs(rng, n) {
			if got, want := sumAVX(x), sumGo(x); !sameBits(got, want) {
				t.Fatalf("Sum n=%d: vector %v, scalar %v", n, got, want)
			}
			mu := rng.NormFloat64()
			if got, want := sumSqDevAVX(x, mu), sumSqDevGo(x, mu); !sameBits(got, want) {
				t.Fatalf("SumSqDev n=%d: vector %v, scalar %v", n, got, want)
			}
			is, gamma, beta := 0.5+rng.Float64(), rng.NormFloat64(), rng.NormFloat64()
			for _, relu := range []bool{false, true} {
				// One spare element on each side guards against stray writes.
				vec := make([]float64, n+2)
				sca := make([]float64, n+2)
				for i := range vec {
					vec[i], sca[i] = 42, 42
				}
				normAffineAVX(vec[1:n+1], x, mu, is, gamma, beta, relu)
				normAffineGo(sca[1:n+1], x, mu, is, gamma, beta, relu)
				for i := range vec {
					if !sameBits(vec[i], sca[i]) {
						t.Fatalf("NormAffine n=%d relu=%v [%d]: vector %v, scalar %v", n, relu, i-1, vec[i], sca[i])
					}
				}
			}
		}
	}
}

// TestReducePrimitivesValues checks the primitives against their plain
// definitions, through the exported entry points (so on whichever backend the
// host dispatches to) and with the vector kernels forced off.
func TestReducePrimitivesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	check := func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 4, 7, 16, 19, 64, 67, 256, 513} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			mu := 0.3
			sum, sq := 0.0, 0.0
			for _, v := range x {
				sum += v
				sq += (v - mu) * (v - mu)
			}
			if got := Sum(x); math.Abs(got-sum) > 1e-12*float64(n+1) {
				t.Fatalf("Sum n=%d = %v, want %v", n, got, sum)
			}
			if got := SumSqDev(x, mu); math.Abs(got-sq) > 1e-12*float64(n+1) {
				t.Fatalf("SumSqDev n=%d = %v, want %v", n, got, sq)
			}
			for _, relu := range []bool{false, true} {
				dst := make([]float64, n)
				NormAffine(dst, x, mu, 1.7, -0.9, 0.2, relu)
				for i, v := range x {
					want := -0.9*((v-mu)*1.7) + 0.2
					if relu && !(want > 0) {
						want = 0
					}
					if dst[i] != want {
						t.Fatalf("NormAffine n=%d relu=%v [%d] = %v, want %v", n, relu, i, dst[i], want)
					}
				}
			}
		}
	}
	t.Run("dispatch", check)
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	t.Run("scalar", check)
}

// TestNormAffineClamp pins the ReLU clamp's edge cases on both backends: NaN
// and −0 become +0, +Inf survives, −Inf clamps.
func TestNormAffineClamp(t *testing.T) {
	x := make([]float64, 12)
	in := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1, 2}
	for i := range x {
		x[i] = in[i%len(in)]
	}
	run := func(name string) {
		dst := make([]float64, len(x))
		NormAffine(dst, x, 0, 1, 1, 0, true)
		for i, v := range dst {
			want := 0.0
			switch in[i%len(in)] {
			case math.Inf(1):
				want = math.Inf(1)
			case 2:
				want = 2
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: clamp(%v) = %v (bits %x), want %v", name, x[i], v, math.Float64bits(v), want)
			}
		}
	}
	run("dispatch")
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	run("scalar")
}

// gridCase lays the packed segment p out as the windows of g in a buffer
// whose other elements are NaN, so a kernel that reads outside a window
// cannot match a packed reference.
func gridCase(p []float64, g Grid) []float64 {
	x := make([]float64, (g.Ch-1)*g.CS+(g.Rows-1)*g.LD+g.Cols+3)
	for i := range x {
		x[i] = math.NaN()
	}
	for i, v := range p {
		x[g.at(i)] = v
	}
	return x
}

// gridSpecials returns copies of base with NaN, ±Inf and −0 planted at
// every position class of the packed order (a block of 16, a block of 4
// after the last one, the tail), plus an all −0 segment.
func gridSpecials(base []float64) [][]float64 {
	n := len(base)
	out := [][]float64{base}
	var at []int
	for _, p := range []int{0, n / 2, n &^ 15, n &^ 3, n - 1} {
		if p < n {
			at = append(at, p)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero} {
		for _, p := range at {
			x := append([]float64(nil), base...)
			x[p] = special
			out = append(out, x)
		}
	}
	zeros := make([]float64, n)
	for i := range zeros {
		zeros[i] = negZero
	}
	return append(out, zeros)
}

// TestGridPrimitivesMatchPacked pins the grid forms of the reduce
// primitives to the packed ones: the vector bodies (grids in block form) and
// the Go twins (any grid) agree bit for bit with each
// other and with Sum, SumSqDev and NormAffine per channel over a copy of the
// packed segment, for 1–16 channels per group and row and channel gaps, with
// special values at every position class.
func TestGridPrimitivesMatchPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, cols := range []int{4, 8, 12, 16, 5, 1, 3} {
		for _, rows := range []int{1, 2, 3, 4, 5} {
			for ch := 1; ch <= 16; ch++ {
				gap := rng.Intn(3)
				g := Grid{Ch: ch, Rows: rows, Cols: cols, LD: cols + gap}
				g.CS = rows*g.LD + rng.Intn(5)
				n := g.Len()
				base := make([]float64, n)
				for i := range base {
					base[i] = rng.NormFloat64() * 3
				}
				gamma, beta := make([]float64, ch), make([]float64, ch)
				for c := range gamma {
					gamma[c], beta[c] = rng.NormFloat64(), rng.NormFloat64()
				}
				for _, p := range gridSpecials(base) {
					checkGridCase(t, g, p, gamma, beta, rng.NormFloat64(), 0.5+rng.Float64())
				}
			}
		}
	}
}

func checkGridCase(t *testing.T, g Grid, p, gamma, beta []float64, mu, is float64) {
	t.Helper()
	x := gridCase(p, g)
	groups, blocks, o1, o2, o3, gstep := g.blocked()
	vec := useAVX && groups > 0
	sums := map[string]float64{"Sum": Sum(p), "sumGo": sumGo(p), "SumGrid": SumGrid(x, g), "twin": gridLanesGo(x, g, 0, false)}
	sqs := map[string]float64{"SumSqDev": SumSqDev(p, mu), "sumSqDevGo": sumSqDevGo(p, mu), "SumSqDevGrid": SumSqDevGrid(x, g, mu), "twin": gridLanesGo(x, g, mu, true)}
	if vec {
		sums["vector"] = sumBlocksAVX(x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep)
		sqs["vector"] = sumSqDevBlocksAVX(x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep, mu)
	}
	for name, v := range sums {
		if !sameBits(v, sums["sumGo"]) {
			t.Fatalf("grid %+v: %s = %v, sumGo over the packed copy %v", g, name, v, sums["sumGo"])
		}
	}
	for name, v := range sqs {
		if !sameBits(v, sqs["sumSqDevGo"]) {
			t.Fatalf("grid %+v: %s = %v, sumSqDevGo over the packed copy %v", g, name, v, sqs["sumSqDevGo"])
		}
	}
	n, hw := g.Len(), g.Rows*g.Cols
	for _, relu := range []bool{false, true} {
		want := make([]float64, n)
		for c := 0; c < g.Ch; c++ {
			normAffineGo(want[c*hw:(c+1)*hw], p[c*hw:(c+1)*hw], mu, is, gamma[c], beta[c], relu)
		}
		outs := map[string][]float64{}
		run := func(name string, f func(dst []float64)) {
			// One spare element on each side guards against stray writes.
			dst := make([]float64, n+2)
			for i := range dst {
				dst[i] = 42
			}
			f(dst[1 : n+1])
			if dst[0] != 42 || dst[n+1] != 42 {
				t.Fatalf("grid %+v relu=%v: %s wrote outside dst", g, relu, name)
			}
			outs[name] = dst[1 : n+1]
		}
		run("NormAffineGrid", func(dst []float64) { NormAffineGrid(dst, 0, x, g, mu, is, gamma, beta, relu) })
		run("rows", func(dst []float64) { normAffineGridRows(dst, 0, x, g, mu, is, gamma, beta, relu) })
		if vec {
			run("vector", func(dst []float64) {
				normAffineBlocksAVX(dst, 0, x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep, mu, is, gamma, beta, relu)
			})
		}
		if g.packed() {
			// In place: the windows are dst's own elements.
			inPlace := append([]float64(nil), x...)
			NormAffineGrid(inPlace[:n], 0, inPlace, g, mu, is, gamma, beta, relu)
			outs["in place"] = inPlace[:n]
		}
		for name, got := range outs {
			for i, v := range want {
				if !sameBits(got[i], v) {
					t.Fatalf("grid %+v relu=%v: %s[%d] = %v, NormAffine per channel %v", g, relu, name, i, got[i], v)
				}
			}
		}
	}
}

// TestGridPrimitivesScalar runs the grid forms' dispatch with the vector
// kernels forced off, so the Go twins are what a host without AVX gets.
func TestGridPrimitivesScalar(t *testing.T) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	rng := rand.New(rand.NewSource(80))
	for _, g := range []Grid{{3, 4, 4, 5, 21}, {2, 16, 16, 17, 274}, {5, 6, 5, 6, 37}, {1, 1, 7, 7, 7}} {
		p := make([]float64, g.Len())
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		gamma, beta := make([]float64, g.Ch), make([]float64, g.Ch)
		for c := range gamma {
			gamma[c], beta[c] = rng.NormFloat64(), rng.NormFloat64()
		}
		checkGridCase(t, g, p, gamma, beta, 0.1, 1.3)
	}
}

// TestNormAffineGridStridedDst holds NormAffineGrid's strided destination
// (channel stride dcs, rows at the source's stride) to its packed one bit
// for bit: each block form of the vector body (16-wide rows, 8×8, 4×4), the
// Go twin (a 5×6 grid, and every grid with the vector kernels off), ReLU on
// and off, and destination channel strides equal to, above and below the
// source's. Every element outside the windows must keep its value: in the
// served pass those are the next conv's pad zeros.
func TestNormAffineGridStridedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	grids := []Grid{{3, 2, 16, 17, 40}, {2, 8, 8, 9, 81}, {4, 4, 4, 5, 25}, {2, 5, 6, 7, 40}}
	for _, vec := range []bool{true, false} {
		saved := useAVX
		useAVX = useAVX && vec
		for _, g := range grids {
			x := make([]float64, (g.Ch-1)*g.CS+(g.Rows-1)*g.LD+g.Cols)
			for i := range x {
				x[i] = rng.NormFloat64() * 3
			}
			gamma, beta := make([]float64, g.Ch), make([]float64, g.Ch)
			for c := range gamma {
				gamma[c], beta[c] = rng.NormFloat64(), rng.NormFloat64()
			}
			mu, is := rng.NormFloat64(), 0.5+rng.Float64()
			for _, relu := range []bool{false, true} {
				want := make([]float64, g.Len())
				NormAffineGrid(want, 0, x, g, mu, is, gamma, beta, relu)
				for _, dcs := range []int{g.CS, g.CS + 7, g.Rows * g.LD} {
					dg := Grid{g.Ch, g.Rows, g.Cols, g.LD, dcs}
					dst := make([]float64, (g.Ch-1)*dcs+(g.Rows-1)*g.LD+g.Cols+2)
					for i := range dst {
						dst[i] = 42
					}
					NormAffineGrid(dst[1:], dcs, x, g, mu, is, gamma, beta, relu)
					inside := map[int]bool{}
					for p, v := range want {
						i := 1 + dg.at(p)
						inside[i] = true
						if !sameBits(dst[i], v) {
							t.Fatalf("vec=%v grid %+v dcs %d relu=%v: element %d = %v, packed %v", useAVX, g, dcs, relu, p, dst[i], v)
						}
					}
					for i, v := range dst {
						if !inside[i] && v != 42 {
							t.Fatalf("vec=%v grid %+v dcs %d relu=%v: wrote dst[%d] outside the windows", useAVX, g, dcs, relu, i-1)
						}
					}
				}
			}
		}
		useAVX = saved
	}
}

// TestGridPrimitivesRejectShortBuffers pins the bounds check that guards
// the vector bodies.
func TestGridPrimitivesRejectShortBuffers(t *testing.T) {
	g := Grid{Ch: 2, Rows: 3, Cols: 4, LD: 5, CS: 16}
	x := make([]float64, 16+2*5+4-1)
	for name, f := range map[string]func(){
		"SumGrid":        func() { SumGrid(x, g) },
		"SumSqDevGrid":   func() { SumSqDevGrid(x, g, 0) },
		"NormAffineGrid": func() { NormAffineGrid(make([]float64, 24), 0, x, g, 0, 1, []float64{1, 1}, []float64{0, 0}, false) },
		"negative":       func() { SumGrid(x, Grid{Ch: 1, Rows: 1, Cols: 4, LD: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a grid past its buffer", name)
				}
			}()
			f()
		}()
	}
}

// TestGridPrimitivesAllocFree pins the grid forms to no allocation: the
// vector bodies walk the geometry themselves, with no offset table.
func TestGridPrimitivesAllocFree(t *testing.T) {
	g := Grid{Ch: 4, Rows: 8, Cols: 8, LD: 9, CS: 80}
	x := make([]float64, 4*80)
	dst := make([]float64, g.Len())
	gamma, beta := make([]float64, 4), make([]float64, 4)
	allocs := testing.AllocsPerRun(100, func() {
		mu := SumGrid(x, g)
		va := SumSqDevGrid(x, g, mu)
		NormAffineGrid(dst, 0, x, g, mu, va+1, gamma, beta, true)
		NormAffineGrid(x, g.CS, x, g, mu, va+1, gamma, beta, true)
	})
	if allocs > 0 {
		t.Fatalf("grid primitives allocate %v times per group", allocs)
	}
}

// TestNormGradVectorMatchesScalar holds the backward kernels' AVX forms to
// their Go twins bit for bit at every length that crosses a block boundary,
// with special values planted in dy and in x, the ReLU mask on and off, and
// dx written over a buffer with a guard element on each side.
func TestNormGradVectorMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Skip("no vector kernel on this host")
	}
	rng := rand.New(rand.NewSource(81))
	for n := 0; n <= 67; n++ {
		xs := reduceInputs(rng, n)
		for k, dy := range reduceInputs(rng, n) {
			x := xs[k%len(xs)]
			mu, is, gamma, beta := rng.NormFloat64(), 0.5+rng.Float64(), rng.NormFloat64(), rng.NormFloat64()
			a, b := rng.NormFloat64(), rng.NormFloat64()
			for _, relu := range []bool{false, true} {
				vg, vgx := normGradSumsAVX(dy, x, mu, is, gamma, beta, relu)
				sg, sgx := normGradSumsGo(dy, x, mu, is, gamma, beta, relu)
				if !sameBits(vg, sg) || !sameBits(vgx, sgx) {
					t.Fatalf("NormGradSums n=%d relu=%v: vector (%v, %v), scalar (%v, %v)", n, relu, vg, vgx, sg, sgx)
				}
				vec := make([]float64, n+2)
				sca := make([]float64, n+2)
				for i := range vec {
					vec[i], sca[i] = 42, 42
				}
				normGradAVX(vec[1:n+1], dy, x, mu, is, gamma, beta, a, b, relu)
				normGradGo(sca[1:n+1], dy, x, mu, is, gamma, beta, a, b, relu)
				for i := range vec {
					if !sameBits(vec[i], sca[i]) {
						t.Fatalf("NormGrad n=%d relu=%v [%d]: vector %v, scalar %v", n, relu, i-1, vec[i], sca[i])
					}
				}
			}
		}
	}
}

// TestNormGradMatchesMaterialized pins what the backward kernels compute,
// on both backends: NormGradSums is Sum over the gradient and over its
// products with x̂, each materialized by a plain loop (x̂ from NormAffine at
// gamma 1, beta 0; the mask from the clamp of NormAffine at gamma, beta),
// and NormGrad is the plain loop of its formula — bit for bit, NaN, ±0 and
// ±Inf included.
func TestNormGradMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	check := func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 4, 7, 8, 16, 19, 64, 67, 256} {
			xs := reduceInputs(rng, n)
			for k, dy := range reduceInputs(rng, n) {
				x := xs[(k+1)%len(xs)]
				mu, is, gamma, beta := rng.NormFloat64(), 0.5+rng.Float64(), rng.NormFloat64(), rng.NormFloat64()
				if k%2 == 0 {
					mu = 0 // −0 inputs then give x̂ = +0, not −0
				}
				a, b := rng.NormFloat64(), rng.NormFloat64()
				xhat, y := make([]float64, n), make([]float64, n)
				NormAffine(xhat, x, mu, is, 1, 0, false)
				for _, relu := range []bool{false, true} {
					NormAffine(y, x, mu, is, gamma, beta, true)
					g, gx, dx := make([]float64, n), make([]float64, n), make([]float64, n)
					for i, v := range dy {
						if !relu || y[i] > 0 {
							g[i] = v
						}
						gx[i] = g[i] * xhat[i]
						dx[i] = is * (float64(g[i]*gamma) - a - float64(xhat[i]*b))
					}
					sg, sgx := NormGradSums(dy, x, mu, is, gamma, beta, relu)
					if !sameBits(sg, Sum(g)) || !sameBits(sgx, Sum(gx)) {
						t.Fatalf("NormGradSums n=%d relu=%v = (%v, %v), Sum over the materialized terms (%v, %v)", n, relu, sg, sgx, Sum(g), Sum(gx))
					}
					got := make([]float64, n)
					NormGrad(got, dy, x, mu, is, gamma, beta, a, b, relu)
					for i := range got {
						if !sameBits(got[i], dx[i]) {
							t.Fatalf("NormGrad n=%d relu=%v [%d] = %v, want %v", n, relu, i, got[i], dx[i])
						}
					}
				}
			}
		}
	}
	t.Run("dispatch", check)
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	t.Run("scalar", check)
}
