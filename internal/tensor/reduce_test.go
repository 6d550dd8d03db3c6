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
