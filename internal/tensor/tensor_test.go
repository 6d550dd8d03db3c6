package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceNoCopyAndMismatch(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("FromSlice must wrap without copying")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice(d, 3, 2)
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if x.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", x.At(1, 2))
	}
	if x.Data[1*3+2] != 5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 3
	if x.Data[0] != 3 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for volume mismatch")
		}
	}()
	x.Reshape(5, 2)
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := FromSlice([]float64{4, 5, 6}, 3)
	x.Add(y)
	if x.Data[2] != 9 {
		t.Fatalf("Add: got %v", x.Data)
	}
	x.Sub(y)
	if x.Data[0] != 1 {
		t.Fatalf("Sub: got %v", x.Data)
	}
	x.Scale(2)
	if x.Data[1] != 4 {
		t.Fatalf("Scale: got %v", x.Data)
	}
	x.AddScaled(0.5, y)
	if x.Data[0] != 4 {
		t.Fatalf("AddScaled: got %v", x.Data)
	}
	x.Mul(y)
	if x.Data[0] != 16 {
		t.Fatalf("Mul: got %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 2}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 0 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
	if !almostEqual(x.L2Norm(), math.Sqrt(14), 1e-12) {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float64{1, 9, 2, 8, 3, 7}, 2, 3)
	if x.ArgMaxRow(0) != 1 {
		t.Fatalf("ArgMaxRow(0) = %d", x.ArgMaxRow(0))
	}
	if x.ArgMaxRow(1) != 0 {
		t.Fatalf("ArgMaxRow(1) = %d", x.ArgMaxRow(1))
	}
}

func TestAllFinite(t *testing.T) {
	x := New(3)
	if !x.AllFinite() {
		t.Fatal("zeros should be finite")
	}
	x.Data[1] = math.NaN()
	if x.AllFinite() {
		t.Fatal("NaN should be detected")
	}
	x.Data[1] = math.Inf(1)
	if x.AllFinite() {
		t.Fatal("Inf should be detected")
	}
}

// naive reference matmul used by the GEMM tests.
func refMatMul(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randSlice(n int, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 2, 9}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(m*k, rng)
		b := randSlice(k*n, rng)
		c := make([]float64, m*n)
		Gemm(m, n, k, a, k, b, n, c, n)
		want := refMatMul(m, n, k, a, b)
		for i := range c {
			if !almostEqual(c[i], want[i], 1e-12) {
				t.Fatalf("Gemm(%d,%d,%d)[%d] = %v, want %v", m, n, k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	b := []float64{2, 3, 4, 5}
	c := []float64{10, 10, 10, 10}
	Gemm(2, 2, 2, a, 2, b, 2, c, 2)
	want := []float64{12, 13, 14, 15}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("Gemm must accumulate: got %v, want %v", c, want)
		}
	}
}

func TestGemmTAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, k := 4, 3, 5
	// A stored as [k×m]; logical op is Aᵀ·B.
	aT := randSlice(k*m, rng)
	b := randSlice(k*n, rng)
	c := make([]float64, m*n)
	GemmTA(m, n, k, aT, m, b, n, c, n)
	// Build A = transpose(aT) and compare with reference.
	a := make([]float64, m*k)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			a[i*k+p] = aT[p*m+i]
		}
	}
	want := refMatMul(m, n, k, a, b)
	for i := range c {
		if !almostEqual(c[i], want[i], 1e-12) {
			t.Fatalf("GemmTA[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestGemmTBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 3, 4, 5
	a := randSlice(m*k, rng)
	bT := randSlice(n*k, rng) // B stored as [n×k]; logical op is A·Bᵀ.
	c := make([]float64, m*n)
	GemmTB(m, n, k, a, k, bT, k, c, n)
	b := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			b[p*n+j] = bT[j*k+p]
		}
	}
	want := refMatMul(m, n, k, a, b)
	for i := range c {
		if !almostEqual(c[i], want[i], 1e-12) {
			t.Fatalf("GemmTB[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestGemmWithLeadingDimensions(t *testing.T) {
	// Simulate slicing: operate on the top-left 2×2 of 4-wide buffers.
	rng := rand.New(rand.NewSource(4))
	a := randSlice(2*4, rng)
	b := randSlice(2*4, rng)
	c := make([]float64, 2*4)
	Gemm(2, 2, 2, a, 4, b, 4, c, 4)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s := 0.0
			for p := 0; p < 2; p++ {
				s += a[i*4+p] * b[p*4+j]
			}
			if !almostEqual(c[i*4+j], s, 1e-12) {
				t.Fatalf("ld-aware Gemm at (%d,%d): %v want %v", i, j, c[i*4+j], s)
			}
		}
	}
	// Untouched region must stay zero.
	for i := 0; i < 2; i++ {
		for j := 2; j < 4; j++ {
			if c[i*4+j] != 0 {
				t.Fatal("Gemm wrote outside the sliced region")
			}
		}
	}
}

func TestGemmPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short buffer")
		}
	}()
	Gemm(2, 2, 2, make([]float64, 3), 2, make([]float64, 4), 2, make([]float64, 4), 2)
}

// Property: GEMM distributes over addition in A, i.e.
// (A1+A2)·B == A1·B + A2·B.
func TestQuickGemmLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a1, a2 := randSlice(m*k, r), randSlice(m*k, r)
		b := randSlice(k*n, r)
		sum := make([]float64, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float64, m*n)
		Gemm(m, n, k, a1, k, b, n, c1, n)
		Gemm(m, n, k, a2, k, b, n, c1, n) // accumulate A2·B
		c2 := make([]float64, m*n)
		Gemm(m, n, k, sum, k, b, n, c2, n)
		for i := range c1 {
			if !almostEqual(c1[i], c2[i], 1e-10) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transposed kernels agree with explicit transposition.
func TestQuickGemmTransposeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randSlice(m*k, r)
		b := randSlice(k*n, r)
		want := refMatMul(m, n, k, a, b)
		// Via GemmTA with explicitly transposed A.
		aT := make([]float64, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				aT[p*m+i] = a[i*k+p]
			}
		}
		c := make([]float64, m*n)
		GemmTA(m, n, k, aT, m, b, n, c, n)
		for i := range c {
			if !almostEqual(c[i], want[i], 1e-10) {
				return false
			}
		}
		// Via GemmTB with explicitly transposed B.
		bT := make([]float64, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bT[j*k+p] = b[p*n+j]
			}
		}
		c2 := make([]float64, m*n)
		GemmTB(m, n, k, a, k, bT, k, c2, n)
		for i := range c2 {
			if !almostEqual(c2[i], want[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
