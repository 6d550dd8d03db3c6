package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// reluBranchy is the ReLU as it was before it ran on the normalization
// clamp: a compare per element, with a kept-unit mask for the gradient. It
// is the oracle both passes are held to, bit for bit.
func reluBranchy(x, dy []float64) (y, dx []float64) {
	y = make([]float64, len(x))
	dx = make([]float64, len(x))
	mask := make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
			mask[i] = true
		}
	}
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		}
	}
	return y, dx
}

func TestReLUMatchesBranchyLoop(t *testing.T) {
	special := []float64{
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1,
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
	}
	rng := rand.New(rand.NewSource(97))
	// Lengths below, at and past the vector threshold, with tails.
	for _, n := range []int{1, 7, 8, 13, 64, 1027} {
		x := make([]float64, n)
		dy := make([]float64, n)
		for i := range x {
			if rng.Intn(3) == 0 {
				x[i] = special[rng.Intn(len(special))]
			} else {
				x[i] = rng.NormFloat64()
			}
			if rng.Intn(4) == 0 {
				dy[i] = special[rng.Intn(len(special))]
			} else {
				dy[i] = rng.NormFloat64()
			}
		}
		wantY, wantDx := reluBranchy(x, dy)
		xt := &tensor.Tensor{Shape: []int{1, n}, Data: x}
		dyt := &tensor.Tensor{Shape: []int{1, n}, Data: dy}
		for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
			r := NewReLU()
			ctx := &Context{Training: true, Arena: arena}
			y := r.Forward(ctx, xt)
			dx := r.Backward(ctx, dyt)
			inf := r.Infer(ctx, xt)
			for i := range x {
				if math.Float64bits(y.Data[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("n=%d Forward(%v) = %v, want %v", n, x[i], y.Data[i], wantY[i])
				}
				if math.Float64bits(inf.Data[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("n=%d Infer(%v) = %v, want %v", n, x[i], inf.Data[i], wantY[i])
				}
				if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx[i]) {
					t.Fatalf("n=%d Backward at x=%v, dy=%v: %v, want %v", n, x[i], dy[i], dx.Data[i], wantDx[i])
				}
			}
			if r.y != nil {
				t.Fatal("Backward kept the cached output")
			}
			arena.Reset()
		}
	}
}

// BenchmarkReLU times the training pair and the served pass over one
// full-width VGG13Mini activation at batch 32.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	x := randTensor(rng, 32, 8, 16, 16)
	dy := randTensor(rng, 32, 8, 16, 16)
	arena := tensor.NewArena()
	r := NewReLU()
	ctx := &Context{Training: true, Arena: arena}
	perElement := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Size()), "ns/element")
	}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Forward(ctx, x)
			arena.Reset()
		}
		perElement(b)
	})
	b.Run("backward", func(b *testing.B) {
		r.Forward(&Context{Training: true}, x) // y on the heap, off the reset arena
		y := r.y
		for i := 0; i < b.N; i++ {
			r.y = y
			r.Backward(ctx, dy)
			arena.Reset()
		}
		perElement(b)
	})
	b.Run("infer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Infer(ctx, x)
			arena.Reset()
		}
		perElement(b)
	})
}
