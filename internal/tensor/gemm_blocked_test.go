package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Reference implementations: the original naive triple loops the blocked
// kernels replaced. They are the correctness oracle for the property tests —
// any (m, n, k, ld*) must agree with them to within accumulation-order
// rounding.

func gemmRef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		ai := a[i*lda : i*lda+k]
		for p := 0; p < k; p++ {
			av := ai[p]
			bp := b[p*ldb : p*ldb+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTARef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for p := 0; p < k; p++ {
		ap := a[p*lda : p*lda+m]
		bp := b[p*ldb : p*ldb+n]
		for i, av := range ap {
			ci := c[i*ldc : i*ldc+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTBRef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] += s
		}
	}
}

// fillRand fills a strided rows×cols region (and its slack, to catch kernels
// that read past the logical columns) with standard normals.
func fillRand(rng *rand.Rand, buf []float64) {
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
}

// gemmCase runs one (m,n,k,ld) configuration through a kernel and its
// reference and compares, also verifying that slack columns between the
// logical width and the leading dimension are untouched.
func gemmCase(t *testing.T, name string, m, n, k, lda, ldb, ldc int,
	kernel, ref func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int),
	aRows, aCols, bRows, bCols int) {
	t.Helper()
	gemmCaseTol(t, name, m, n, k, lda, ldb, ldc, kernel, ref, aRows, aCols, bRows, bCols, 0)
}

// gemmCaseTol is gemmCase with an explicit absolute tolerance (0 keeps the
// default 1e-10·√k).
func gemmCaseTol(t *testing.T, name string, m, n, k, lda, ldb, ldc int,
	kernel, ref func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int),
	aRows, aCols, bRows, bCols int, maxErr float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000003 + n*1009 + k)))
	a := make([]float64, (aRows-1)*lda+aCols+7)
	b := make([]float64, (bRows-1)*ldb+bCols+7)
	cGot := make([]float64, (m-1)*ldc+n+7)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, cGot) // nonzero start exercises accumulation
	cWant := append([]float64(nil), cGot...)

	kernel(m, n, k, a, lda, b, ldb, cGot, ldc)
	ref(m, n, k, a, lda, b, ldb, cWant, ldc)

	tol := maxErr
	if tol == 0 {
		tol = 1e-10 * math.Sqrt(float64(k))
	}
	for i := range cGot {
		row, col := i/ldc, i%ldc
		inRegion := row < m && col < n
		d := math.Abs(cGot[i] - cWant[i])
		if inRegion && d > tol {
			t.Fatalf("%s m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: C[%d,%d] = %g, want %g (|Δ|=%g)",
				name, m, n, k, lda, ldb, ldc, row, col, cGot[i], cWant[i], d)
		}
		if !inRegion && cGot[i] != cWant[i] {
			t.Fatalf("%s m=%d n=%d k=%d: slack element %d modified (%g → %g)",
				name, m, n, k, i, cWant[i], cGot[i])
		}
	}
}

// TestGemmAgainstReference sweeps deterministic shapes — on both sides of the
// transposed products' shape rule and of the panel boundaries, with tight and
// strided leading dimensions — for all three kernels.
func TestGemmAgainstReference(t *testing.T) {
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{3, 5, 7, 0},
		{4, 4, 4, 3},
		{16, 16, 16, 0},
		{31, 33, 29, 5},     // ragged, below GemmTBEx's small-product threshold
		{48, 48, 48, 0},     // at GemmTBEx's small-product threshold
		{64, 64, 64, 9},     // blocked, ragged ld
		{65, 67, 63, 1},     // blocked, every edge panel ragged
		{128, 32, 256, 0},   // full kc run
		{40, 300, 20, 2},    // wide n crossing the nc panel boundary
		{300, 7, 70, 0},     // tall m crossing mc blocks
		{130, 130, 130, 11}, // mid-size square, ragged ld
		{256, 256, 260, 0},  // k > kc: multiple packed k panels
	}
	for _, s := range shapes {
		lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
		gemmCase(t, "Gemm", s.m, s.n, s.k, lda, ldb, ldc, Gemm, gemmRef, s.m, s.k, s.k, s.n)
		// GemmTA: A stored [k×m], so lda ≥ m.
		gemmCase(t, "GemmTA", s.m, s.n, s.k, s.m+s.pad, ldb, ldc, GemmTA, gemmTARef, s.k, s.m, s.k, s.n)
		// GemmTB: B stored [n×k], so ldb ≥ k.
		gemmCase(t, "GemmTB", s.m, s.n, s.k, lda, s.k+s.pad, ldc, GemmTB, gemmTBRef, s.m, s.k, s.n, s.k)
	}
}

// TestGemmTransposedShapeRule sweeps the accumulating transposed products
// across their route boundary: GemmTA keeps the strided loop only for k < 4
// and GemmTB only for m < 4, so k, m ∈ {1…6} runs both sides, at padded
// leading dimensions, against the naive loops.
func TestGemmTransposedShapeRule(t *testing.T) {
	const pad = 3
	for d := 1; d <= 6; d++ {
		for _, n := range []int{1, 7, 16, 64, 300} {
			for _, other := range []int{2, 9, 72} {
				// GemmTA: k = d, A stored [k×m].
				m, k := other, d
				gemmCaseTol(t, "GemmTA", m, n, k, m+pad, n+pad, n+pad, GemmTA, gemmTARef, k, m, k, n, 1e-12)
				// GemmTB: m = d, B stored [n×k].
				m, k = d, other
				gemmCaseTol(t, "GemmTB", m, n, k, k+pad, k+pad, n+pad, GemmTB, gemmTBRef, m, k, n, k, 1e-12)
			}
		}
	}
}

// TestGemmRandomShapes is the property test: random m, n, k and random
// strides (ld* ≥ logical width) must always agree with the reference.
func TestGemmRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		m := 1 + rng.Intn(90)
		n := 1 + rng.Intn(90)
		k := 1 + rng.Intn(90)
		if it%5 == 0 {
			// Occasionally push one dimension through the blocked panels.
			switch it % 3 {
			case 0:
				m += 200
			case 1:
				n += 200
			default:
				k += 300
			}
		}
		padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		gemmCase(t, "Gemm", m, n, k, k+padA, n+padB, n+padC, Gemm, gemmRef, m, k, k, n)
		gemmCase(t, "GemmTA", m, n, k, m+padA, n+padB, n+padC, GemmTA, gemmTARef, k, m, k, n)
		gemmCase(t, "GemmTB", m, n, k, k+padA, k+padB, n+padC, GemmTB, gemmTBRef, m, k, n, k)
	}
}

// FuzzGemm is the engine's property test: one differential over entry ×
// m, n, k × leading-dimension pads × epilogue mask × tier. On the exact tier
// every entry agrees with the naive oracle to 1e-10·√k; on the fma tier,
// which only the served weight entries (GemmExT, GemmTBPackedExT,
// GemmShiftEx) take, each stays within fmaKernelTol (relative) of its own
// exact-tier result. GemmTBPackedExT and GemmShiftEx must equal the strided
// product over the materialized operand on the same tier bit for bit
// (GemmShiftTB, a dot product in its own lane order, answers to the oracle
// only), and no entry may touch C's slack past n in a row, past its last
// row, or its operands.
func FuzzGemm(f *testing.F) {
	add := func(entry, m, n, k, padA, padB, padC, mask int, tier EngineTier) {
		f.Add(uint8(entry), uint16(m-1), uint16(n-1), uint16(k), uint8(padA), uint8(padB), uint8(padC), uint8(mask), uint8(tier))
	}
	// The corpus replays every (shape, strides, mask) drawn by the three
	// seeded property tests, on the entries each one runs:
	// TestGemmRandomShapes (rand seed 7), TestGemmExRandomShapes (13) and
	// TestPackedGemmRandomShapes (29), sixty draws each.
	for _, seed := range []int64{7, 13, 29} {
		rng := rand.New(rand.NewSource(seed))
		for it := 0; it < 60; it++ {
			m, n, k := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(90)
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
			mask := 0
			if seed != 7 {
				mask = rng.Intn(epilogueMasks)
				epilogueCase(rng, mask, m, n) // draws the vectors, as the tests did
			}
			switch seed {
			case 7:
				padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
				for e := fuzzGemm; e <= fuzzGemmTB; e++ {
					add(e, m, n, k, padA, padB, padC, 0, TierExact)
				}
			case 13:
				padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
				add(fuzzGemmEx, m, n, k, padA, padB, padC, mask, TierExact)
				add(fuzzGemmTBEx, m, n, k, padA, padB, padC, mask, TierExact)
			case 29:
				pad := rng.Intn(8)
				padB, padC := rng.Intn(8), rng.Intn(8)
				add(fuzzGemmExT, m, n, k, pad, padB, padC, mask, TierExact)
				add(fuzzGemmTBPackedExT, m, n, k, pad, pad, padC, mask, TierExact)
			}
		}
	}
	// Beyond the replay: k = 0, the fma tier and shifted rows.
	for e := 0; e < fuzzEntries; e++ {
		add(e, 5, 9, 0, 1, 2, 3, 63, TierExact)
		add(e, 65, 300, 270, 3, 0, 2, e*9, TierFMA)
		add(e, 2, 8, 27, 2, 2, 0, 33, TierExact)
	}
	// The fma tier's tails on 3×3 tap windows: n ≡ 4 (mod 8) leaves a column
	// tail behind the 4×8 dot kernel, m = 9 a row tail, and k = 306 runs two
	// k-panels.
	for _, e := range []int{fuzzGemmExT, fuzzGemmTBPackedExT, fuzzGemmShiftEx} {
		add(e, 9, 20, 300, 2, 2, 1, 4, TierFMA)
		add(e, 4, 196, 27, 2, 2, 4, 16, TierFMA)
	}
	f.Fuzz(func(t *testing.T, entry uint8, mRaw, nRaw, kRaw uint16, padA, padB, padC, maskRaw, tierRaw uint8) {
		e := int(entry) % fuzzEntries
		m, n, k := 1+int(mRaw)%320, 1+int(nRaw)%320, int(kRaw)%420
		pA, pB, pC := int(padA)%16, int(padB)%16, int(padC)%16
		tier := EngineTier(tierRaw % NumTiers)
		assign := e >= fuzzGemmEx
		if e != fuzzGemmExT && e != fuzzGemmTBPackedExT && e != fuzzGemmShiftEx {
			tier = TierExact // only the served weight entries take a tier
		}
		rng := rand.New(rand.NewSource(int64((((e*331+m)*331+n)*421+k)*4096 + pA*256 + pB*16 + pC)))

		// Operands as stored: A is [m×k] (GemmTA: [k×m]), B is [k×n] (the TB
		// entries: [n×k]; shifted rows: windows of an image).
		aRows, aCols, bRows, bCols := m, k, k, n
		switch e {
		case fuzzGemmTA:
			aRows, aCols = k, m
		case fuzzGemmTB, fuzzGemmShiftTB, fuzzGemmTBEx, fuzzGemmTBPackedExT:
			bRows, bCols = n, k
		}
		// Shifted rows: B's rows (k of them; GemmShiftTB: n) are whole
		// channels of kh×kw tap windows.
		var kh, kw, ldImg, plane int
		switch e {
		case fuzzGemmShiftEx:
			kh, kw = 1+pA%3, 1+pB%3
			k = (k + kh*kw - 1) / (kh * kw) * (kh * kw)
			aCols, bRows = k, k
			ldImg, plane = pC+kw, kh*(pC+kw)+pB
		case fuzzGemmShiftTB:
			kh, kw = 1+pA%3, 1+pB%3
			n = (n + kh*kw - 1) / (kh * kw) * (kh * kw)
			bRows = n
			ldImg, plane = pC+kw, kh*(pC+kw)+pB
		}
		lda, ldb, ldc := aCols+pA, bCols+pB, n+pC
		a := make([]float64, aRows*lda+7)
		b := make([]float64, bRows*ldb+7)
		fillRand(rng, a)
		fillRand(rng, b)
		var img []float64
		switch e {
		case fuzzGemmShiftEx:
			img = make([]float64, max(k/(kh*kw)-1, 0)*plane+(kh-1)*ldImg+kw-1+n+7)
			fillRand(rng, img)
			b, ldb = shiftRowsOracle(k, n, kh, kw, img, ldImg, plane), n
		case fuzzGemmShiftTB:
			img = make([]float64, (n/(kh*kw)-1)*plane+(kh-1)*ldImg+kw-1+k+7)
			fillRand(rng, img)
			b, ldb = shiftRowsOracle(n, k, kh, kw, img, ldImg, plane), k
		}
		var ep *Epilogue
		if assign {
			ep = epilogueCase(rng, int(maskRaw)%epilogueMasks, m, n)
		}
		c0 := make([]float64, (m-1)*ldc+n+7)
		fillRand(rng, c0) // assign entries must overwrite it, the others accumulate onto it
		a0, b0, img0 := slices.Clone(a), slices.Clone(b), slices.Clone(img)

		run := func(tier EngineTier) []float64 {
			c := slices.Clone(c0)
			switch e {
			case fuzzGemm:
				Gemm(m, n, k, a, lda, b, ldb, c, ldc)
			case fuzzGemmTA:
				GemmTA(m, n, k, a, lda, b, ldb, c, ldc)
			case fuzzGemmTB:
				GemmTB(m, n, k, a, lda, b, ldb, c, ldc)
			case fuzzGemmShiftTB:
				GemmShiftTB(m, n, k, kh, kw, a, lda, img, ldImg, plane, c, ldc)
			case fuzzGemmEx:
				GemmEx(m, n, k, a, lda, b, ldb, c, ldc, ep)
			case fuzzGemmTBEx:
				GemmTBEx(m, n, k, a, lda, b, ldb, c, ldc, ep)
			case fuzzGemmExT:
				GemmExT(tier, m, n, k, a, lda, b, ldb, c, ldc, ep)
			case fuzzGemmTBPackedExT:
				GemmTBPackedExT(tier, m, n, k, a, lda, PackTB(n, k, b, ldb), c, ldc, ep)
			case fuzzGemmShiftEx:
				GemmShiftEx(tier, m, n, k, kh, kw, a, lda, img, ldImg, plane, c, ldc, ep)
			}
			return c
		}
		got := run(tier)
		where := fmt.Sprintf("entry %d %v m=%d n=%d k=%d lda=%d ldb=%d ldc=%d mask=%06b",
			e, tier, m, n, k, lda, ldb, ldc, int(maskRaw)%epilogueMasks)
		inC := func(i int) bool { return i/ldc < m && i%ldc < n }
		for i := range got {
			if !inC(i) && math.Float64bits(got[i]) != math.Float64bits(c0[i]) {
				t.Fatalf("%s: slack element %d modified (%g → %g)", where, i, c0[i], got[i])
			}
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) || !slices.Equal(img, img0) {
			t.Fatalf("%s: an operand was modified", where)
		}

		if tier == TierFMA {
			if rel := tierMaxRel(m, n, ldc, got, run(TierExact)); rel > fmaKernelTol {
				t.Fatalf("%s: fma tier rel error %.3g > %g", where, rel, fmaKernelTol)
			}
		} else {
			want := slices.Clone(c0)
			if assign {
				for i := range want {
					if inC(i) {
						want[i] = 0
					}
				}
			}
			switch e {
			case fuzzGemmTA:
				gemmTARef(m, n, k, a, lda, b, ldb, want, ldc)
			case fuzzGemmTB, fuzzGemmShiftTB, fuzzGemmTBEx, fuzzGemmTBPackedExT:
				gemmTBRef(m, n, k, a, lda, b, ldb, want, ldc)
			default:
				gemmRef(m, n, k, a, lda, b, ldb, want, ldc)
			}
			epilogueRef(m, n, want, ldc, ep)
			tol := 1e-10 * math.Sqrt(float64(max(k, 1)))
			for i := range got {
				if d := math.Abs(got[i] - want[i]); inC(i) && !(d <= tol) {
					t.Fatalf("%s: C[%d,%d] = %g, want %g (|Δ|=%g)", where, i/ldc, i%ldc, got[i], want[i], d)
				}
			}
		}

		if e >= fuzzGemmTBPackedExT {
			strided := slices.Clone(c0)
			bOp := operand{data: b, ld: ldb}
			if e == fuzzGemmTBPackedExT {
				bOp.kind = opTrans
			}
			gemmAssign(tier, m, n, k, operand{data: a, ld: lda}, bOp, strided, ldc, ep)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(strided[i]) {
					t.Fatalf("%s: [%d] = %g, strided product %g (not bit-identical)", where, i, got[i], strided[i])
				}
			}
		}
	})
}

// FuzzGemm's entries.
const (
	fuzzGemm = iota
	fuzzGemmTA
	fuzzGemmTB
	fuzzGemmShiftTB
	fuzzGemmEx
	fuzzGemmTBEx
	fuzzGemmExT
	fuzzGemmTBPackedExT
	fuzzGemmShiftEx
	fuzzEntries
)

// --- assign-mode epilogue kernels (GemmEx, GemmTBEx) ---

// epilogueRef applies the Epilogue's steps naively to a fully accumulated
// product, one at a time in the unfolded order Alpha, RowScale, RowShift,
// ColShift, ReLU — the oracle for the fused in-panel application.
// applyEpilogue folds Alpha·RowScale[i] into one factor and always adds the
// row shift, so the two agree within the callers' tolerance, not bit for
// bit.
func epilogueRef(m, n int, c []float64, ldc int, ep *Epilogue) {
	if ep == nil {
		return
	}
	alpha := ep.Alpha
	if alpha == 0 {
		alpha = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := alpha * c[i*ldc+j]
			if ep.RowScale != nil {
				v *= ep.RowScale[i]
			}
			if ep.RowShift != nil {
				v += ep.RowShift[i]
			}
			if ep.ColShift != nil {
				v += ep.ColShift[j]
			}
			if ep.ReLU && !(v > 0) {
				v = 0
			}
			c[i*ldc+j] = v
		}
	}
}

// TestEpilogueFoldsAlphaIntoRowScale pins the Epilogue arithmetic as
// documented: Alpha·RowScale[i] is one factor, rounded before it meets the
// product, not two steps.
func TestEpilogueFoldsAlphaIntoRowScale(t *testing.T) {
	c := []float64{math.NaN()}
	GemmEx(1, 1, 1, []float64{0.1}, 1, []float64{0.3}, 1, c, 1, &Epilogue{Alpha: 3, RowScale: []float64{0.1}})
	if want := 0.009000000000000001; c[0] != want {
		t.Fatalf("Alpha 3, RowScale 0.1 on 0.1·0.3 = %v, want the folded %v (step by step gives 0.009)", c[0], want)
	}
}

// epilogueMasks counts the epilogue feature combinations epilogueCase
// enumerates: Alpha, RowScale, RowShift, ColShift and ReLU, one bit each.
const epilogueMasks = 1 << 5

// epilogueCase builds the epilogue of one feature combination (a mask below
// epilogueMasks) with random vectors.
func epilogueCase(rng *rand.Rand, mask, m, n int) *Epilogue {
	ep := &Epilogue{}
	randVec := func(l int) []float64 {
		v := make([]float64, l)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	if mask&1 != 0 {
		ep.Alpha = 0.25 + rng.Float64()
	}
	if mask&2 != 0 {
		ep.RowScale = randVec(m)
	}
	if mask&4 != 0 {
		ep.RowShift = randVec(m)
	}
	if mask&8 != 0 {
		ep.ColShift = randVec(n)
	}
	ep.ReLU = mask&16 != 0
	return ep
}

// gemmExCase runs one assign-mode configuration through a fused kernel and
// its unfused reference (accumulate into zeros, then apply the epilogue
// naively), starting from a garbage-filled destination to prove assign mode
// overwrites every element.
func gemmExCase(t *testing.T, name string, m, n, k, lda, ldb, ldc int, ep *Epilogue,
	kernel func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, ep *Epilogue),
	ref func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int),
	aRows, aCols, bRows, bCols int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*999979 + n*1013 + k*7)))
	a := make([]float64, (aRows-1)*lda+aCols+5)
	b := make([]float64, (bRows-1)*ldb+bCols+5)
	cGot := make([]float64, (m-1)*ldc+n+5)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, cGot) // garbage start: assign mode must overwrite all of it
	cWant := make([]float64, len(cGot))
	copy(cWant, cGot)
	for i := range cWant {
		row, col := i/ldc, i%ldc
		if row < m && col < n {
			cWant[i] = 0
		}
	}

	kernel(m, n, k, a, lda, b, ldb, cGot, ldc, ep)
	ref(m, n, k, a, lda, b, ldb, cWant, ldc)
	epilogueRef(m, n, cWant, ldc, ep)

	tol := 1e-10 * math.Sqrt(float64(k))
	for i := range cGot {
		row, col := i/ldc, i%ldc
		inRegion := row < m && col < n
		d := math.Abs(cGot[i] - cWant[i])
		if inRegion && d > tol {
			t.Fatalf("%s m=%d n=%d k=%d: C[%d,%d] = %g, want %g (|Δ|=%g)",
				name, m, n, k, row, col, cGot[i], cWant[i], d)
		}
		if !inRegion && cGot[i] != cWant[i] {
			t.Fatalf("%s m=%d n=%d k=%d: slack element %d modified (%g → %g)",
				name, m, n, k, i, cWant[i], cGot[i])
		}
	}
}

// TestGemmExEpilogueCombinations sweeps every epilogue feature combination
// over shapes on both sides of GemmTBEx's small-product threshold.
func TestGemmExEpilogueCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{3, 17, 5, 2},
		{16, 64, 9, 0},
		{8, 300, 72, 3},    // conv-like: few rows, wide batch columns
		{65, 67, 63, 1},    // blocked, ragged panels
		{40, 130, 270, 2},  // k > kc: epilogue must fire on the last k-panel only
		{130, 130, 130, 0}, // mid-size square
	}
	for _, s := range shapes {
		for mask := 0; mask < epilogueMasks; mask++ {
			ep := epilogueCase(rng, mask, s.m, s.n)
			lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
			gemmExCase(t, "GemmEx", s.m, s.n, s.k, lda, ldb, ldc, ep, GemmEx, gemmRef, s.m, s.k, s.k, s.n)
			// GemmTBEx: B stored [n×k], so ldb ≥ k.
			gemmExCase(t, "GemmTBEx", s.m, s.n, s.k, lda, s.k+s.pad, ldc, ep, GemmTBEx, gemmTBRef, s.m, s.k, s.n, s.k)
		}
	}
}

// TestGemmExRandomShapes is the property test for the assign-mode kernels:
// random shapes, random strides, random epilogues.
func TestGemmExRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
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
		padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		gemmExCase(t, "GemmEx", m, n, k, k+padA, n+padB, n+padC, ep, GemmEx, gemmRef, m, k, k, n)
		gemmExCase(t, "GemmTBEx", m, n, k, k+padA, k+padB, n+padC, ep, GemmTBEx, gemmTBRef, m, k, n, k)
	}
}

// TestGemmExBitIdenticalToGemm pins the assign-mode contract the inference
// path relies on: with no epilogue, every assign entry point over garbage
// equals the accumulating product over zeros on the same tier, bit for bit —
// down to the sign of an exact zero. Row 0 of A is all negative and column 0
// of B all +0, so C[0,0] sums only −0 products: accumulating into a zeroed C
// gives +0 (0 + −0), and so must assign mode.
func TestGemmExBitIdenticalToGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][3]int{{5, 9, 3}, {65, 7, 300}, {16, 256, 72}, {64, 64, 300}, {130, 130, 130}}
	for _, tier := range []EngineTier{TierExact, TierFMA} {
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a := make([]float64, m*k)
			b := make([]float64, k*n)  // [k×n]
			bt := make([]float64, n*k) // [n×k], the GemmTB orientation
			fillRand(rng, a)
			fillRand(rng, b)
			fillRand(rng, bt)
			for p := 0; p < k; p++ {
				a[p] = -math.Abs(a[p]) - 1
				b[p*n] = 0
				bt[p] = 0
			}
			acc := func(c []float64) {
				gemmBlocked(tier, m, n, k, operand{data: a, ld: k}, operand{data: b, ld: n}, c, n, false, nil)
			}
			accTB := func(c []float64) {
				gemmBlocked(tier, m, n, k, operand{data: a, ld: k}, operand{kind: opTrans, data: bt, ld: k}, c, n, false, nil)
			}
			type op struct {
				name        string
				assign, acc func(c []float64)
			}
			ops := []op{
				{"GemmExT", func(c []float64) { GemmExT(tier, m, n, k, a, k, b, n, c, n, nil) }, acc},
				{"GemmTBPackedExT", func(c []float64) { GemmTBPackedExT(tier, m, n, k, a, k, PackTB(n, k, bt, k), c, n, nil) }, accTB},
			}
			if tier == TierExact { // GemmEx and GemmTBEx run exact only
				ops = append(ops,
					op{"GemmEx", func(c []float64) { GemmEx(m, n, k, a, k, b, n, c, n, nil) }, acc},
					op{"GemmTBEx", func(c []float64) { GemmTBEx(m, n, k, a, k, bt, k, c, n, nil) }, func(c []float64) {
						if m*n*k < smallGemmFlops {
							gemmTBSimple(m, n, k, a, k, bt, k, c, n) // GemmTBEx's small-product path
							return
						}
						accTB(c)
					}})
			}
			for _, op := range ops {
				want := make([]float64, m*n)
				op.acc(want)
				got := make([]float64, m*n)
				fillRand(rng, got) // garbage: a tile that was not zeroed shows
				op.assign(got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%v m=%d n=%d k=%d: assign[%d]=%g, accumulate into zeros=%g",
							op.name, tier, m, n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemmExEmptyK pins the assign-mode contract at k = 0: an empty sum
// must still fully overwrite C (zeros) and run the epilogue, matching what
// GemmTBEx's simple path already does.
func TestGemmExEmptyK(t *testing.T) {
	c := []float64{7, 7, 7, 7, 7, 7}
	GemmEx(2, 2, 0, nil, 0, nil, 2, c, 3, &Epilogue{RowShift: []float64{1, 2}})
	want := []float64{1, 1, 7, 2, 2, 7} // ldc=3: slack column untouched
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %g, want %g (full: %v)", i, c[i], want[i], c)
		}
	}
	c2 := []float64{7, 7, 7, 7}
	GemmTBEx(2, 2, 0, nil, 0, nil, 0, c2, 2, nil)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("GemmTBEx k=0: c[%d] = %g, want 0", i, v)
		}
	}
}

// TestEpilogueVectorChecks verifies the epilogue length validation.
func TestEpilogueVectorChecks(t *testing.T) {
	a := make([]float64, 12)
	b := make([]float64, 12)
	c := make([]float64, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("GemmEx accepted a short RowScale")
		}
	}()
	GemmEx(3, 3, 4, a, 4, b, 3, c, 3, &Epilogue{RowScale: make([]float64, 2)})
}

// TestGemmShapeChecks verifies the unified shape-error reporting of the
// GEMM entries: checkMat on each matrix operand, checkVec on the epilogue
// vectors.
func TestGemmShapeChecks(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	a := make([]float64, 12) // [3×4]
	b := make([]float64, 12) // [4×3]
	c := make([]float64, 9)  // [3×3]
	v := make([]float64, 3)
	GemmEx(3, 3, 4, a, 4, b, 3, c, 3, &Epilogue{RowShift: v, ColShift: v}) // well-formed
	expectPanic("short A", func() { Gemm(4, 3, 4, a, 4, b, 3, make([]float64, 12), 3) })
	expectPanic("short B", func() { Gemm(3, 3, 4, a, 4, b[:11], 3, c, 3) })
	expectPanic("short C", func() { Gemm(3, 3, 4, a, 4, b, 3, c[:8], 3) })
	expectPanic("bad lda", func() { Gemm(3, 3, 4, a, 3, b, 3, c, 3) })
	expectPanic("short RowShift", func() { GemmEx(3, 3, 4, a, 4, b, 3, c, 3, &Epilogue{RowShift: v[:2]}) })
	expectPanic("short ColShift", func() { GemmEx(3, 3, 4, a, 4, b, 3, c, 3, &Epilogue{ColShift: v[:2]}) })
}

// --- kernel benchmarks: size sweep for the perf trajectory ---

func benchGemmSize(b *testing.B, n int, kernel func(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int)) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	fillRand(rng, a)
	fillRand(rng, bm)
	b.SetBytes(int64(8 * n * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(n, n, n, a, n, bm, n, c, n)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
}

func BenchmarkGemm32(b *testing.B)    { benchGemmSize(b, 32, Gemm) }
func BenchmarkGemm64(b *testing.B)    { benchGemmSize(b, 64, Gemm) }
func BenchmarkGemm128(b *testing.B)   { benchGemmSize(b, 128, Gemm) }
func BenchmarkGemm256(b *testing.B)   { benchGemmSize(b, 256, Gemm) }
func BenchmarkGemm512(b *testing.B)   { benchGemmSize(b, 512, Gemm) }
func BenchmarkGemmTA256(b *testing.B) { benchGemmSize(b, 256, GemmTA) }
func BenchmarkGemmTB256(b *testing.B) { benchGemmSize(b, 256, GemmTB) }

func BenchmarkGemmRef256(b *testing.B) { benchGemmSize(b, 256, gemmRef) }

// BenchmarkGemmPaperShapes times the served conv product — GemmShiftEx, the
// weight prefix read in place as A times the tap windows of one padded
// sample — at VGG-13's stage shapes and at three of VGG13Mini's (m = output
// channels, n = output pixels, k = input channels·9) on both tiers: at
// r = 1, and at r = 0.25 as the quarter prefix of the r = 1 parent (m/4
// rows, k/4 columns, lda = the parent's k). The image is laid out as a
// same conv's shifted-row lowering lays out one sample (pad 1, rows at
// stride w+1), and the grid is rounded up to the tier's column block; the
// GFLOPS count only the n output pixels.
func BenchmarkGemmPaperShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range [][3]int{
		{512, 64, 4608}, {256, 64, 2304}, {128, 64, 1152}, {64, 1024, 576}, // VGG-13
		{8, 256, 72}, {64, 16, 576}, {32, 64, 288}, // VGG13Mini
	} {
		M, N, K := s[0], s[1], s[2]
		hw := int(math.Sqrt(float64(N)))
		ld := hw + 1
		plane := (hw + 2) * ld
		w := make([]float64, M*K)
		img := make([]float64, K/9*plane+8)
		c := make([]float64, M*(N+8*hw))
		fillRand(rng, w)
		fillRand(rng, img)
		ep := &Epilogue{RowShift: make([]float64, M), ReLU: true}
		for _, r := range []float64{1, 0.25} {
			m, k := int(float64(M)*r), int(float64(K)*r)
			for _, tier := range []EngineTier{TierExact, TierFMA} {
				cb := tier.ColBlock()
				n := ((hw-1)*ld + hw + cb - 1) / cb * cb
				b.Run(fmt.Sprintf("%dx%dx%d/r%g/%v", M, N, K, r, tier), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						GemmShiftEx(tier, m, n, k, 3, 3, w, K, img, ld, plane, c, n, ep)
					}
					b.ReportMetric(2*float64(m*N*k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
				})
			}
		}
	}
}

// vggConvShapes lists VGG13Mini's eight 3×3 convolutions as (input
// channels, output channels, output side); the first layer's input is never
// sliced, every other width slices in four groups.
var vggConvShapes = [8][3]int{
	{3, 8, 16}, {8, 8, 16}, {8, 16, 16}, {16, 16, 16},
	{16, 32, 8}, {32, 32, 8}, {32, 64, 4}, {64, 64, 4},
}

// BenchmarkGemmBackwardShapes times the strided loops against the blocked
// engine on every VGG13Mini conv backward product at r ∈ {0.25, 0.5, 1}:
// dW through GemmTB (m = aOut, n = aIn·9, k = spatial) and dcol through
// GemmTA (m = aIn·9, n = spatial, k = aOut). It is the sweep behind the
// shape rule in GemmTA/GemmTB (DESIGN §7): blocked loses only where the
// routed dimension — GemmTB's m, GemmTA's k — is below 4.
func BenchmarkGemmBackwardShapes(b *testing.B) {
	type route struct {
		name string
		run  func(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int)
	}
	taRoutes := []route{{"simple", gemmTASimple}, {"blocked", func(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int) {
		gemmBlocked(TierExact, m, n, k, operand{kind: opTrans, data: a, ld: lda}, operand{data: bm, ld: ldb}, c, ldc, false, nil)
	}}}
	tbRoutes := []route{{"simple", gemmTBSimple}, {"blocked", func(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int) {
		gemmBlocked(TierExact, m, n, k, operand{data: a, ld: lda}, operand{kind: opTrans, data: bm, ld: ldb}, c, ldc, false, nil)
	}}}
	rng := rand.New(rand.NewSource(1))
	for li, s := range vggConvShapes {
		for _, r := range []float64{0.25, 0.5, 1} {
			aIn, aOut := s[0], int(float64(s[1])*r)
			if li > 0 {
				aIn = int(float64(s[0]) * r)
			}
			colRows, spatial := aIn*9, s[2]*s[2]
			g := make([]float64, aOut*spatial)      // dy_b [aOut × spatial]
			col := make([]float64, colRows*spatial) // im2col [colRows × spatial]
			w := make([]float64, aOut*colRows)      // W prefix [aOut × colRows]
			fillRand(rng, g)
			fillRand(rng, col)
			fillRand(rng, w)
			bench := func(op string, rt route, m, n, k int, a []float64, lda int, bm []float64, ldb int) {
				c := make([]float64, m*n)
				b.Run(fmt.Sprintf("conv%d/r%.2f/%s/m%d_n%d_k%d/%s", li+1, r, op, m, n, k, rt.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						rt.run(m, n, k, a, lda, bm, ldb, c, n)
					}
					b.ReportMetric(2*float64(m*n*k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOPS")
				})
			}
			for _, rt := range tbRoutes {
				bench("TB", rt, aOut, colRows, spatial, g, spatial, col, spatial)
			}
			for _, rt := range taRoutes {
				bench("TA", rt, colRows, spatial, aOut, w, colRows, g, spatial)
			}
		}
	}
}
