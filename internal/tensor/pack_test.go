package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// packedCase runs one (m,n,k,ld,epilogue) configuration through the packed
// entry point and demands BIT-identical results against the unpacked blocked
// engine (gemmBlocked in assign mode — the path GemmTBEx takes above its
// small-product threshold). The packed layout preserves the engine's
// per-element accumulation order, so the comparison is exact equality, not a
// tolerance.
func packedCase(t *testing.T, m, n, k, lda, ldbT, ldc int, ep *Epilogue) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*131071 + n*257 + k)))
	a := make([]float64, (m-1)*lda+k+3)
	bt := make([]float64, (n-1)*ldbT+k+3) // B stored [n×k]
	fillRand(rng, a)
	fillRand(rng, bt)

	check := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s m=%d n=%d k=%d lda=%d ldc=%d: [%d] = %g, want %g (not bit-identical)",
					name, m, n, k, lda, ldc, i, got[i], want[i])
			}
		}
	}

	// GemmTBPackedEx (streamed A · packed Bᵀ) vs the unpacked blocked engine.
	want := make([]float64, (m-1)*ldc+n+3)
	fillRand(rng, want)
	got := append([]float64(nil), want...)
	gemmBlocked(TierExact, m, n, k, operand{data: a, ld: lda}, operand{kind: opTrans, data: bt, ld: ldbT}, want, ldc, true, ep)
	GemmTBPackedExT(TierExact, m, n, k, a, lda, PackTB(n, k, bt, ldbT), got, ldc, ep)
	check("GemmTBPackedEx", got, want)
}

// TestPackedGemmDeterministicShapes sweeps shapes across the kc/nc panel
// boundaries, with tight and strided leading dimensions, under a
// representative epilogue set.
func TestPackedGemmDeterministicShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{2, 7, 5, 0},
		{3, 5, 7, 2},
		{4, 4, 4, 3},
		{8, 256, 72, 0},     // conv-like: few rows, one full nc tile
		{8, 10, 64, 0},      // dense-head-like
		{31, 33, 29, 5},     // ragged everywhere
		{48, 48, 48, 0},     // at the old small-product boundary
		{64, 64, 64, 9},     // blocked, ragged ld
		{65, 300, 63, 1},    // n crosses the nc tile boundary, ragged edge tiles
		{130, 130, 130, 11}, // mid-size square, ragged ld
		{40, 130, 270, 2},   // k > kc: multiple packed k panels
		{257, 31, 260, 0},   // tall m: 4-row kernel plus 2-row and 1-row tails
	}
	for _, s := range shapes {
		for _, mask := range []int{0, 1, 6, 8, 16, epilogueMasks - 1} {
			ep := epilogueCase(rng, mask, s.m, s.n)
			packedCase(t, s.m, s.n, s.k, s.k+s.pad, s.k+s.pad, s.n+s.pad, ep)
		}
	}
}

// TestPackedGemmRandomShapes is the property test: random shapes, random
// strides, random epilogue masks — always bit-identical to the unpacked
// blocked engine.
func TestPackedGemmRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		m := 1 + rng.Intn(90)
		n := 1 + rng.Intn(90)
		k := 1 + rng.Intn(90)
		if it%5 == 0 {
			switch it % 3 {
			case 0:
				m += 200
			case 1:
				n += 200
			default:
				k += 300
			}
		}
		ep := epilogueCase(rng, rng.Intn(epilogueMasks), m, n)
		pad := rng.Intn(8)
		packedCase(t, m, n, k, k+pad, k+pad, n+rng.Intn(8), ep)
	}
}

// TestPackedGemmAllEpilogueMasks runs all 2⁵ epilogue feature combinations on
// a conv-like row-short shape, ragged panel edges and a mid-size square.
func TestPackedGemmAllEpilogueMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{8, 300, 72, 3},    // conv-like row-short product, two column tiles
		{65, 67, 63, 1},    // ragged panels
		{130, 130, 130, 0}, // mid-size square
	}
	for _, s := range shapes {
		for mask := 0; mask < epilogueMasks; mask++ {
			ep := epilogueCase(rng, mask, s.m, s.n)
			packedCase(t, s.m, s.n, s.k, s.k+s.pad, s.k+s.pad, s.n+s.pad, ep)
		}
	}
}

// TestPackedGemmEmptyK pins the assign-mode contract at k = 0 for both
// tiered weight entries, the strided-A one on the fma tier: zeros plus
// epilogue, slack columns untouched.
func TestPackedGemmEmptyK(t *testing.T) {
	c := []float64{7, 7, 7, 7, 7, 7}
	GemmExT(TierFMA, 2, 2, 0, nil, 0, nil, 2, c, 3, &Epilogue{RowShift: []float64{1, 2}})
	want := []float64{1, 1, 7, 2, 2, 7}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("GemmExT k=0: c[%d] = %g, want %g", i, c[i], want[i])
		}
	}
	c2 := []float64{7, 7, 7, 7}
	GemmTBPackedExT(TierExact, 2, 2, 0, nil, 0, PackTB(2, 0, nil, 0), c2, 2, nil)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("GemmTBPackedEx k=0: c[%d] = %g, want 0", i, v)
		}
	}
}

// TestPackedGemmShapeChecks verifies that a pack built for one width is
// rejected when handed to a product of another — the guard behind the
// per-width cache keying upstairs.
func TestPackedGemmShapeChecks(t *testing.T) {
	a := make([]float64, 6*8)
	b := make([]float64, 8*4)
	c := make([]float64, 6*4)
	pb := PackTB(4, 8, b, 8)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	GemmTBPackedExT(TierExact, 6, 4, 8, a, 8, pb, c, 4, nil) // well-formed
	expectPanic("wrong n", func() { GemmTBPackedExT(TierExact, 6, 3, 8, a, 8, pb, c, 4, nil) })
	expectPanic("wrong k", func() { GemmTBPackedExT(TierExact, 6, 4, 7, a, 8, pb, c, 4, nil) })
	expectPanic("transposed dims", func() { GemmTBPackedExT(TierExact, 4, 8, 4, a, 8, pb, c, 8, nil) })
	expectPanic("nil pack", func() { GemmTBPackedExT(TierExact, 6, 4, 8, a, 8, nil, c, 4, nil) })
}

// TestPackedMatDims pins the accessor contract and the exact (unpadded)
// memory accounting: a pack costs rows·cols elements, ragged edges included.
func TestPackedMatDims(t *testing.T) {
	b := make([]float64, 70*300)
	pb := PackTB(70, 300, b, 300)
	if r, c := pb.Dims(); r != 300 || c != 70 {
		t.Fatalf("PackTB dims = %d×%d, want 300×70", r, c)
	}
	if pb.Bytes() != 300*70*8 {
		t.Fatalf("PackTB bytes = %d, want %d", pb.Bytes(), 300*70*8)
	}
}

// TestPackedGemmSharedConcurrent hammers one pack from many goroutines — the
// server's shards and the per-width cache both rely on a PackedMat being
// freely shareable. Run under -race in CI.
func TestPackedGemmSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const m, n, k = 32, 96, 80
	a := make([]float64, m*k)
	b := make([]float64, n*k)
	fillRand(rng, a)
	fillRand(rng, b)
	pb := PackTB(n, k, b, k)
	want := make([]float64, m*n)
	GemmTBPackedExT(TierExact, m, n, k, a, k, pb, want, n, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float64, m*n)
			for it := 0; it < 20; it++ {
				GemmTBPackedExT(TierExact, m, n, k, a, k, pb, c, n, &Epilogue{ReLU: it%2 == 0})
			}
			GemmTBPackedExT(TierExact, m, n, k, a, k, pb, c, n, nil)
			for i := range want {
				if c[i] != want[i] {
					t.Errorf("concurrent packed GEMM diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- benchmarks: the serving shapes ---

func BenchmarkDenseGemmUnpacked32x256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 32, 256, 256
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	c := make([]float64, m*n)
	fillRand(rng, a)
	fillRand(rng, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTBEx(m, n, k, a, k, w, k, c, n, nil)
	}
}
func BenchmarkDenseGemmPacked32x256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 32, 256, 256
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	c := make([]float64, m*n)
	fillRand(rng, a)
	fillRand(rng, w)
	pb := PackTB(n, k, w, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTBPackedExT(TierExact, m, n, k, a, k, pb, c, n, nil)
	}
}
