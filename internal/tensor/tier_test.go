package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Accuracy gate for the fma tier at the kernel level, pinned empirically
// (see DESIGN.md §12): measured deviations sit 3+ orders of magnitude below
// it, so a regression that breaks the tier contract trips loudly.
const fmaKernelTol = 1e-9 // fma vs exact, relative to max|C|

func TestTierParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want EngineTier
	}{{"", TierExact}, {"exact", TierExact}, {"fma", TierFMA}} {
		got, err := ParseTier(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseTier(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
	}
	// "f32" named a tier this engine once had; it is refused like any other
	// unknown spelling.
	for _, s := range []string{"int8", "f32"} {
		if _, err := ParseTier(s); err == nil {
			t.Fatalf("ParseTier accepted the unknown tier %q", s)
		}
	}
	for tier, want := range map[EngineTier]string{TierExact: "exact", TierFMA: "fma"} {
		if tier.String() != want {
			t.Fatalf("String() = %q, want %q", tier.String(), want)
		}
	}
}

func TestTierFromEnv(t *testing.T) {
	cases := map[string]EngineTier{"": TierExact, "exact": TierExact, "nonsense": TierExact, "f32": TierExact}
	if HasFMA() {
		cases["fma"] = TierFMA
	} else {
		// The fma tier downgrades on non-FMA hosts: software math.FMA would
		// be correct but slower than the exact engine.
		cases["fma"] = TierExact
	}
	for env, want := range cases {
		t.Setenv("MS_ENGINE_TIER", env)
		if got := TierFromEnv(); got != want {
			t.Fatalf("MS_ENGINE_TIER=%q: TierFromEnv() = %v, want %v", env, got, want)
		}
	}
}

// tierShapes mirrors the kernel-flip test's sweep: shapes on both sides of
// every dispatch boundary (narrow panels, ragged tiles, multiple k panels,
// a mid-size square), plus strided operands.
var tierShapes = []struct{ m, n, k, pad int }{
	{1, 1, 1, 0},
	{2, 8, 4, 0},
	{16, 7, 30, 0}, // below vecMinCols: scalar either way
	{5, 9, 11, 3},
	{31, 33, 29, 5},
	{65, 67, 63, 1},
	{40, 300, 20, 2},   // crosses the nc tile boundary
	{64, 64, 300, 0},   // multiple kc panels
	{130, 130, 130, 7}, // mid-size square
}

// TestFastTierFlipBitIdentical pins the fma tier's determinism contract:
// flipping useFMA (vector kernels vs math.FMA scalar loops) must not change
// a single bit, across shapes, strides, and every epilogue combination. This
// is what lets one tolerance, measured once, stand for every host and
// GOMAXPROCS.
func TestFastTierFlipBitIdentical(t *testing.T) {
	if !useFMA {
		t.Skip("host has no FMA: only the scalar path exists, nothing to flip")
	}
	rng := rand.New(rand.NewSource(23))
	for _, s := range tierShapes {
		lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
		ldbT := s.k + s.pad // GemmTB orientation: B stored [n×k]
		a := make([]float64, s.m*lda+8)
		b := make([]float64, s.k*ldb+8)
		bt := make([]float64, s.n*ldbT+8)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, bt)
		ep := epilogueCase(rng, rng.Intn(epilogueMasks), s.m, s.n)
		pa, pb := PackA(s.m, s.k, a, lda), PackTB(s.n, s.k, bt, ldbT)

		type op struct {
			name string
			run  func(c []float64)
		}
		ops := []op{
			{"accumulate/fma", func(c []float64) {
				gemmBlocked(TierFMA, s.m, s.n, s.k, operand{data: a, ld: lda}, operand{data: b, ld: ldb}, c, ldc, false, nil)
			}},
			{"GemmPackedExT/fma", func(c []float64) { GemmPackedExT(TierFMA, s.m, s.n, s.k, pa, b, ldb, c, ldc, ep) }},
			{"GemmTBPackedExT/fma", func(c []float64) { GemmTBPackedExT(TierFMA, s.m, s.n, s.k, a, lda, pb, c, ldc, ep) }},
		}
		for _, o := range ops {
			vec := make([]float64, s.m*ldc+8)
			scl := make([]float64, len(vec))
			fillRand(rng, vec)
			copy(scl, vec)
			o.run(vec)
			useFMA = false
			o.run(scl)
			useFMA = true
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(scl[i]) {
					t.Fatalf("%s m=%d n=%d k=%d pad=%d: vector/scalar diverge at %d: %g vs %g",
						o.name, s.m, s.n, s.k, s.pad, i, vec[i], scl[i])
				}
			}
		}
	}
}

// tierMaxRel returns max|got-want| / max|want| over the m×n region.
func tierMaxRel(m, n, ldc int, got, want []float64) float64 {
	maxD, maxW := 0.0, 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			maxD = math.Max(maxD, math.Abs(got[i*ldc+j]-want[i*ldc+j]))
			maxW = math.Max(maxW, math.Abs(want[i*ldc+j]))
		}
	}
	if maxW == 0 {
		return maxD
	}
	return maxD / maxW
}

// TestFMATierToleranceVsExact property-tests the fma tier against the exact
// scalar oracle over random shapes, strides, and all 2^5 epilogue masks.
func TestFMATierToleranceVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range tierShapes {
		for mask := 0; mask < epilogueMasks; mask++ {
			m, n, k := s.m, s.n, s.k
			lda, ldb, ldc := k+s.pad, n+s.pad, n+s.pad
			a := make([]float64, m*lda+4)
			b := make([]float64, k*ldb+4)
			fillRand(rng, a)
			fillRand(rng, b)
			ep := epilogueCase(rng, mask, m, n)
			want := make([]float64, m*ldc+4)
			got := make([]float64, len(want))
			GemmEx(m, n, k, a, lda, b, ldb, want, ldc, ep)
			GemmPackedExT(TierFMA, m, n, k, PackA(m, k, a, lda), b, ldb, got, ldc, ep)
			if rel := tierMaxRel(m, n, ldc, got, want); rel > fmaKernelTol {
				t.Fatalf("fma tier m=%d n=%d k=%d mask=%d: rel error %.3g > %g", m, n, k, mask, rel, fmaKernelTol)
			}
		}
	}
}

// TestNarrowPanelTakesScalarPath is the regression test for the shared
// narrow-panel threshold: a 7-column panel (below vecMinCols) must take the
// scalar path under the exact and fma tiers alike, and a wide panel
// must take the vector path wherever the hardware allows it.
func TestNarrowPanelTakesScalarPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n, k := 16, 7, 30
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(rng, a)
	fillRand(rng, b)
	c := make([]float64, m*n)

	delta := func(run func()) [NumTiers]KernelCounters {
		before := GemmStats().Kernels
		run()
		after := GemmStats().Kernels
		var d [NumTiers]KernelCounters
		for i := range d {
			d[i] = KernelCounters{Vector: after[i].Vector - before[i].Vector, Scalar: after[i].Scalar - before[i].Scalar}
		}
		return d
	}

	pa := PackA(m, k, a, k)
	for _, tier := range []EngineTier{TierExact, TierFMA} {
		d := delta(func() { GemmPackedExT(tier, m, n, k, pa, b, n, c, n, nil) })
		if d[tier].Scalar == 0 || d[tier].Vector != 0 {
			t.Fatalf("tier %v, 7-column panel: kernel deltas %+v, want scalar>0 vector=0", tier, d)
		}
	}

	// Wide panels engage the vector kernels when the hardware has them.
	wn := 64
	wb := make([]float64, k*wn)
	fillRand(rng, wb)
	wc := make([]float64, m*wn)
	if HasAVX() {
		if d := delta(func() { GemmEx(m, wn, k, a, k, wb, wn, wc, wn, nil) }); d[TierExact].Vector == 0 {
			t.Fatalf("exact tier, wide panel: kernel deltas %+v, want vector>0", d)
		}
	}
	if HasFMA() {
		if d := delta(func() { GemmPackedExT(TierFMA, m, wn, k, pa, wb, wn, wc, wn, nil) }); d[TierFMA].Vector == 0 {
			t.Fatalf("fma tier, wide panel: kernel deltas %+v, want vector>0", d)
		}
	}
}

// TestFastTierZeroAlloc pins the steady-state allocation contract of the
// fast-tier entry points: like the exact packed paths, they must not
// allocate per call.
func TestFastTierZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(43))
	m, n, k := 64, 64, 64 // blocked
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(rng, a)
	fillRand(rng, b)
	c := make([]float64, m*n)
	ep := &Epilogue{RowShift: make([]float64, m), ReLU: true}
	pa, pb := PackA(m, k, a, k), PackTB(n, k, b, k)

	for name, fn := range map[string]func(){
		"GemmPackedExT/fma":   func() { GemmPackedExT(TierFMA, m, n, k, pa, b, n, c, n, ep) },
		"GemmTBPackedExT/fma": func() { GemmTBPackedExT(TierFMA, m, n, k, a, k, pb, c, n, ep) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
