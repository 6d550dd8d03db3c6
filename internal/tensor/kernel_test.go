package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestVectorKernelBitIdenticalToScalar pins the contract the AVX backend is
// built on: with the vector kernels force-disabled, every entry point must
// produce the same bits as with them enabled — each lane evaluates the scalar
// expression tree verbatim (mul then left-to-right adds, no FMA). Skipped on
// hosts with no vector backend.
func TestVectorKernelBitIdenticalToScalar(t *testing.T) {
	if !useAVX {
		t.Skip("no vector kernel on this host")
	}
	rng := rand.New(rand.NewSource(41))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 9, 5, 0},       // single row: quad1 kernels
		{2, 8, 4, 0},       // exactly one quad call, no tails
		{5, 13, 11, 3},     // odd everything: scalar tails on all sides
		{8, 256, 72, 0},    // conv stage shape
		{64, 16, 576, 1},   // deep k: multiple kc panels
		{65, 300, 63, 2},   // ragged nc tiles
		{16, 7, 30, 0},     // below vecMinCols: scalar either way
		{130, 130, 130, 0}, // ragged tiles on every side
	}
	// k-tails past the last quad (k mod 4 of 1–3, or no quad at all) on
	// odd and even row counts flip both step kernels; k 18 and 27 are the
	// quarter-width and first VGG convs.
	for _, k := range []int{1, 2, 3, 5, 6, 7, 18, 27} {
		shapes = append(shapes, shape{3, 21, k, 1}, shape{4, 196, k, 0})
	}
	const entries = 8
	for _, s := range shapes {
		lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
		ldat, ldbt := s.m+s.pad, s.k+s.pad // GemmTA's A is [k×m], GemmTB's B [n×k]
		a := make([]float64, (s.m-1)*lda+s.k+3)
		at := make([]float64, (s.k-1)*ldat+s.m+3)
		b := make([]float64, (s.k-1)*ldb+s.n+3)
		bt := make([]float64, (s.n-1)*ldbt+s.k+3)
		fillRand(rng, a)
		fillRand(rng, at)
		fillRand(rng, b)
		fillRand(rng, bt)
		// GemmPackedShiftEx reads 3×3 tap windows of a padded image: k
		// rounds up to whole channels of nine taps, with a weight of its own.
		ks := (s.k + 8) / 9 * 9
		as := make([]float64, s.m*ks)
		fillRand(rng, as)
		ld := 4 + s.pad
		plane := 2*ld + s.n
		img := make([]float64, (ks/9-1)*plane+2*ld+2+s.n)
		fillRand(rng, img)
		ep := epilogueCase(rng, rng.Intn(epilogueMasks), s.m, s.n)
		run := func(dst []float64, which int) {
			switch which {
			case 0:
				Gemm(s.m, s.n, s.k, a, lda, b, ldb, dst, ldc)
			case 1:
				GemmEx(s.m, s.n, s.k, a, lda, b, ldb, dst, ldc, ep)
			case 2:
				GemmTBEx(s.m, s.n, s.k, a, lda, bt, ldbt, dst, ldc, ep)
			case 3:
				GemmPackedExT(TierExact, s.m, s.n, s.k, PackA(s.m, s.k, a, lda), b, ldb, dst, ldc, ep)
			case 4:
				GemmTBPackedExT(TierExact, s.m, s.n, s.k, a, lda, PackTB(s.n, s.k, bt, ldbt), dst, ldc, ep)
			case 5:
				GemmTA(s.m, s.n, s.k, at, ldat, b, ldb, dst, ldc)
			case 6:
				GemmTB(s.m, s.n, s.k, a, lda, bt, ldbt, dst, ldc)
			case 7:
				GemmPackedShiftEx(s.m, s.n, 3, 3, PackA(s.m, ks, as, ks), img, ld, plane, dst, ldc, ep)
			}
		}
		for which := 0; which < entries; which++ {
			seed := make([]float64, (s.m-1)*ldc+s.n+3)
			fillRand(rng, seed)
			vec := append([]float64(nil), seed...)
			run(vec, which)
			useAVX = false
			scal := append([]float64(nil), seed...)
			run(scal, which)
			useAVX = true
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(scal[i]) {
					t.Fatalf("entry %d m=%d n=%d k=%d pad=%d: vector[%d]=%g, scalar=%g (not bit-identical)",
						which, s.m, s.n, s.k, s.pad, i, vec[i], scal[i])
				}
			}
		}
	}

	// GemmShiftTB's dot tile, on its own and through the entry: odd and
	// even m, window counts that are not whole quads (5 taps of a 1×5
	// kernel, 9 and 27 of a 3×3 one), every dot length from 4 to 64.
	for k := 0; k <= 64; k++ {
		var rows [6][]float64
		for i := range rows {
			rows[i] = make([]float64, k)
			fillRand(rng, rows[i])
		}
		var vec, scal [8]float64
		dot2x4AVX(rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], &vec)
		dot2x4(rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], &scal)
		for i := range vec {
			if math.Float64bits(vec[i]) != math.Float64bits(scal[i]) {
				t.Fatalf("dot tile k=%d: vector[%d]=%g, scalar=%g (not bit-identical)", k, i, vec[i], scal[i])
			}
		}
	}
	for _, m := range []int{1, 3, 4} {
		for _, taps := range [][3]int{{1, 5, 5}, {3, 3, 9}, {3, 3, 27}} {
			kh, kw, n := taps[0], taps[1], taps[2]
			for k := 4; k <= 64; k++ {
				ld := kw + 2
				plane := kh*ld + k
				img := make([]float64, (n/(kh*kw)-1)*plane+(kh-1)*ld+kw-1+k)
				a := make([]float64, m*(k+1))
				fillRand(rng, img)
				fillRand(rng, a)
				seed := make([]float64, m*n)
				fillRand(rng, seed)
				vec, scal := slices.Clone(seed), slices.Clone(seed)
				GemmShiftTB(m, n, k, kh, kw, a, k+1, img, ld, plane, vec, n)
				useAVX = false
				GemmShiftTB(m, n, k, kh, kw, a, k+1, img, ld, plane, scal, n)
				useAVX = true
				for i := range vec {
					if math.Float64bits(vec[i]) != math.Float64bits(scal[i]) {
						t.Fatalf("GemmShiftTB m=%d n=%d k=%d %dx%d: vector[%d]=%g, scalar=%g (not bit-identical)",
							m, n, k, kh, kw, i, vec[i], scal[i])
					}
				}
			}
		}
	}
}
