package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// shiftRowsOracle materializes the B operand GemmPackedShiftEx reads in
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

// TestGemmPackedShiftMatchesMaterialized holds the shifted-row products —
// on a pack (GemmPackedShiftEx) and on the strided weight it was packed from
// (GemmShiftEx) — to GemmPackedExT over the materialized matrix, bit for
// bit: random tap
// geometries (rows that overlap, abut or leave gaps), k past one 256-row
// panel, C wider than a column panel, odd m, every epilogue mask, and both
// the AVX and the scalar panel loops.
func TestGemmPackedShiftMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	saved := useAVX
	defer func() { useAVX = saved }()
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
		a := make([]float64, m*k)
		fillRand(rng, a)
		pa := PackA(m, k, a, k)
		ldc := n + rng.Intn(3)
		ep := epilogueCase(rng, it%epilogueMasks, m, n)

		want := make([]float64, m*ldc)
		GemmPackedExT(TierExact, m, n, k, pa, shiftRowsOracle(k, n, kh, kw, img, ld, plane), n, want, ldc, ep)
		for _, avx := range []bool{saved, false} {
			useAVX = avx
			for _, packed := range []bool{true, false} {
				got := make([]float64, m*ldc)
				for i := range got {
					got[i] = math.NaN() // assign mode overwrites every element
				}
				if packed {
					GemmPackedShiftEx(m, n, kh, kw, pa, img, ld, plane, got, ldc, ep)
				} else {
					GemmShiftEx(m, n, k, kh, kw, a, k, img, ld, plane, got, ldc, ep)
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						g, w := got[i*ldc+j], want[i*ldc+j]
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("it %d (m=%d n=%d k=%d %dx%d ld=%d plane=%d mask=%06b avx=%v packed=%v): C[%d,%d]=%v, materialized %v",
								it, m, n, k, kh, kw, ld, plane, it%epilogueMasks, avx, packed, i, j, g, w)
						}
					}
				}
			}
		}
		useAVX = saved
	}
}

// TestGemmPackedShiftCountsKernels pins the dispatch accounting: one exact
// tier kernel per C panel, vector or scalar by the engine's width rule, and
// one per GemmShiftTB call, vector when its dots are at least one 4-lane
// vector long.
func TestGemmPackedShiftCountsKernels(t *testing.T) {
	pa := PackA(2, 9, make([]float64, 18), 9)
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
		count("GemmPackedShiftEx", n, useAVX && n >= vecMinCols, func() {
			GemmPackedShiftEx(2, n, 3, 3, pa, img, 5, 0, c, n, nil)
		})
	}
	for _, k := range []int{3, 40} {
		count("GemmShiftTB", k, useAVX && k >= 4, func() {
			GemmShiftTB(3, 18, k, 3, 3, make([]float64, 3*k), k, img, 5, 2, c, 18)
		})
	}
}

func TestGemmPackedShiftShapeChecks(t *testing.T) {
	pa := PackA(2, 9, make([]float64, 18), 9)
	c := make([]float64, 2*8)
	for name, call := range map[string]func(){
		"taps do not divide k": func() { GemmPackedShiftEx(2, 8, 2, 2, pa, make([]float64, 64), 3, 9, c, 8, nil) },
		"image too short":      func() { GemmPackedShiftEx(2, 8, 3, 3, pa, make([]float64, 8), 3, 9, c, 8, nil) },
		"wrong row count":      func() { GemmPackedShiftEx(3, 8, 3, 3, pa, make([]float64, 64), 3, 9, c, 8, nil) },
		"B-layout pack": func() {
			GemmPackedShiftEx(2, 8, 3, 3, PackTB(2, 9, make([]float64, 18), 9), make([]float64, 64), 3, 9, c, 8, nil)
		},
		"strided A too short": func() { GemmShiftEx(2, 8, 9, 3, 3, make([]float64, 17), 9, make([]float64, 64), 3, 9, c, 8, nil) },
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
