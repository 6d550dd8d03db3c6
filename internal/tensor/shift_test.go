package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// shiftRowsOracle materializes the B operand GemmShiftEx reads in
// place: row p = (ci·kh + ki)·kw + kj is img[ci·plane + ki·ld + kj:][:n].
func shiftRowsOracle(k, n, kh, kw int, img []float64, ld, plane int) []float64 {
	b := make([]float64, k*n)
	for p := 0; p < k; p++ {
		ci, t := p/(kh*kw), p%(kh*kw)
		off := ci*plane + t/kw*ld + t%kw
		copy(b[p*n:(p+1)*n], img[off:off+n])
	}
	return b
}

// TestGemmPackedShiftMatchesMaterialized holds the shifted-row product
// (GemmShiftEx) — on a weight of exactly k columns (training's flipped
// kernel) and on the k-column prefix of a wider parent, read in place as
// served — to GemmExT over the materialized matrix on the same tier, bit for
// bit: random tap geometries (rows that overlap, abut or leave gaps), k past
// one 256-row panel, C wider than a column panel, odd m, every epilogue
// mask, on both tiers, each on its vector and its scalar panel loops.
func TestGemmPackedShiftMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	savedAVX, savedFMA := useAVX, useFMA
	defer func() { useAVX, useFMA = savedAVX, savedFMA }()
	for it := 0; it < 160; it++ {
		kh, kw := 1+rng.Intn(4), 1+rng.Intn(4)
		channels := 1 + rng.Intn(6)
		if it%8 == 0 {
			channels = 260/(kh*kw) + 1 + rng.Intn(3) // two k-panels
		}
		k := channels * kh * kw
		m := 1 + rng.Intn(9)
		n := 1 + rng.Intn(40)
		if it%5 == 0 {
			n = 1 + rng.Intn(700) // several column panels when kh·kw is small
		}
		ld := rng.Intn(2 * (kw + 3))
		plane := rng.Intn(kh*ld + 2*n + 1)
		last := (channels-1)*plane + (kh-1)*ld + kw - 1
		img := make([]float64, last+n+rng.Intn(3))
		fillRand(rng, img)
		// The parent has 1–4 times the prefix's channels.
		lda := k * (1 + rng.Intn(4))
		a := make([]float64, m*lda)
		fillRand(rng, a)
		ldc := n + rng.Intn(3)
		ep := epilogueCase(rng, it%epilogueMasks, m, n)

		for _, tier := range []EngineTier{TierExact, TierFMA} {
			want := make([]float64, m*ldc)
			GemmExT(tier, m, n, k, a, lda, shiftRowsOracle(k, n, kh, kw, img, ld, plane), n, want, ldc, ep)
			for _, vec := range []bool{true, false} {
				useAVX, useFMA = savedAVX && vec, savedFMA && vec
				for _, prefix := range []bool{true, false} {
					got := make([]float64, m*ldc)
					for i := range got {
						got[i] = math.NaN() // assign mode overwrites every element
					}
					if prefix {
						GemmShiftEx(tier, m, n, k, kh, kw, a, lda, img, ld, plane, got, ldc, ep)
					} else {
						GemmShiftEx(tier, m, n, k, kh, kw, compactRows(a, m, k, lda), k, img, ld, plane, got, ldc, ep)
					}
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							g, w := got[i*ldc+j], want[i*ldc+j]
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("it %d %v (m=%d n=%d k=%d lda=%d %dx%d ld=%d plane=%d mask=%06b vec=%v prefix=%v): C[%d,%d]=%v, materialized %v",
									it, tier, m, n, k, lda, kh, kw, ld, plane, it%epilogueMasks, vec, prefix, i, j, g, w)
							}
						}
					}
				}
			}
			useAVX, useFMA = savedAVX, savedFMA
		}
	}
}

// compactRows copies the first k columns of an m-row matrix with row stride
// lda into a matrix of row stride k.
func compactRows(a []float64, m, k, lda int) []float64 {
	out := make([]float64, m*k)
	for i := 0; i < m; i++ {
		copy(out[i*k:(i+1)*k], a[i*lda:])
	}
	return out
}

// TestGemmPackedShiftCountsKernels pins the dispatch accounting: one exact
// tier kernel per C panel, vector or scalar by the engine's width rule, and
// one per GemmShiftTB call, vector when its dots are at least one 4-lane
// vector long.
func TestGemmPackedShiftCountsKernels(t *testing.T) {
	a := make([]float64, 18)
	img := make([]float64, 64)
	c := make([]float64, 2*40)
	count := func(name string, n int, wantVec bool, call func()) {
		before := GemmStats().Kernels[TierExact]
		call()
		after := GemmStats().Kernels[TierExact]
		vec, sca := after.Vector-before.Vector, after.Scalar-before.Scalar
		if vec+sca != 1 || (vec == 1) != wantVec {
			t.Fatalf("%s n=%d: %d vector + %d scalar dispatches, want one (vector %v)", name, n, vec, sca, wantVec)
		}
	}
	for _, n := range []int{4, 40} {
		count("GemmShiftEx", n, useAVX && n >= vecMinCols, func() {
			GemmShiftEx(TierExact, 2, n, 9, 3, 3, a, 9, img, 5, 0, c, n, nil)
		})
	}
	for _, k := range []int{3, 40} {
		count("GemmShiftTB", k, useAVX && k >= 4, func() {
			GemmShiftTB(3, 18, k, 3, 3, make([]float64, 3*k), k, img, 5, 2, c, 18)
		})
	}
}

func TestGemmPackedShiftShapeChecks(t *testing.T) {
	a := make([]float64, 27)
	c := make([]float64, 2*8)
	for name, call := range map[string]func(){
		"taps do not divide k": func() { GemmShiftEx(TierExact, 2, 8, 9, 2, 2, a, 9, make([]float64, 64), 3, 9, c, 8, nil) },
		"image too short":      func() { GemmShiftEx(TierExact, 2, 8, 9, 3, 3, a, 9, make([]float64, 8), 3, 9, c, 8, nil) },
		"C too short":          func() { GemmShiftEx(TierExact, 3, 8, 9, 3, 3, a, 9, make([]float64, 64), 3, 9, c, 8, nil) },
		"prefix wider than A":  func() { GemmShiftEx(TierExact, 2, 8, 18, 3, 3, a, 9, make([]float64, 64), 3, 9, c, 8, nil) },
		"strided A too short": func() {
			GemmShiftEx(TierExact, 2, 8, 9, 3, 3, make([]float64, 17), 9, make([]float64, 64), 3, 9, c, 8, nil)
		},
		"taps do not divide the windows": func() {
			GemmShiftTB(2, 8, 4, 3, 3, make([]float64, 8), 4, make([]float64, 64), 3, 9, c, 8)
		},
		"dot image too short": func() { GemmShiftTB(2, 9, 4, 3, 3, make([]float64, 8), 4, make([]float64, 12), 3, 9, c, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestCopyRowsMatchesRowCopies holds CopyRows to one copy per row on both
// the AVX and the per-row path: widths below, at and past the vector block,
// with and without a remainder, and gaps on either side left untouched.
func TestCopyRowsMatchesRowCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, avx := range []bool{false, saved} {
		useAVX = avx
		for cols := 0; cols <= 13; cols++ {
			for _, rows := range []int{0, 1, 4, 7} {
				lds, ldd := cols+rng.Intn(3), cols+1+rng.Intn(3)
				src := make([]float64, rows*lds+2)
				fillRand(rng, src)
				dst := make([]float64, rows*ldd+2)
				fillRand(rng, dst)
				want := append([]float64(nil), dst...)
				for i := 0; i < rows; i++ {
					copy(want[i*ldd:i*ldd+cols], src[i*lds:i*lds+cols])
				}
				CopyRows(rows, cols, dst, ldd, src, lds)
				for i := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("avx=%v %d×%d lds=%d ldd=%d: dst[%d]=%v, want %v", avx, rows, cols, lds, ldd, i, dst[i], want[i])
					}
				}
			}
		}
	}
}
