package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"modelslicing/internal/tensor"
)

func TestGroupNormNormalizesGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := NewGroupNorm(8, 4, Fixed(), 1e-5)
	x := randTensor(rng, 3, 8, 4, 4)
	y := g.Forward(Eval(1), x)
	// With γ=1, β=0 each (sample, group) must have ~zero mean, unit var.
	gs, hw := 2, 16
	for b := 0; b < 3; b++ {
		for gi := 0; gi < 4; gi++ {
			mu, va := 0.0, 0.0
			n := gs * hw
			for c := gi * gs; c < (gi+1)*gs; c++ {
				for s := 0; s < hw; s++ {
					mu += y.Data[((b*8+c)*16 + s)]
				}
			}
			mu /= float64(n)
			for c := gi * gs; c < (gi+1)*gs; c++ {
				for s := 0; s < hw; s++ {
					d := y.Data[((b*8+c)*16+s)] - mu
					va += d * d
				}
			}
			va /= float64(n)
			if math.Abs(mu) > 1e-8 || math.Abs(va-1) > 1e-3 {
				t.Fatalf("group (%d,%d): mean %v var %v", b, gi, mu, va)
			}
		}
	}
}

func TestGroupNormGradCheck4D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := NewGroupNorm(4, 2, Fixed(), 1e-5)
	// Perturb affine params away from the identity for a stronger check.
	tensor.InitNormal(g.Gamma.Value, 0.5, rng)
	g.Gamma.Value.Data[0] += 1
	tensor.InitNormal(g.Beta.Value, 0.5, rng)
	x := randTensor(rng, 2, 4, 3, 3)
	if err := CheckGradients(g, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGroupNormGradCheck2D(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := NewGroupNorm(8, 4, Fixed(), 1e-5)
	x := randTensor(rng, 3, 8)
	if err := CheckGradients(g, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGroupNormGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	for _, r := range []float64{0.25, 0.5, 0.75} {
		aC := g.Spec.Active(r, 8)
		x := randTensor(rng, 2, aC, 3, 3)
		if err := CheckGradients(g, Train(r, rng), x, nil, 0); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

// GroupNorm output for the active prefix must be independent of whether the
// wider network exists at all — the scale-stability property of Section 3.2.
func TestGroupNormSliceScaleStability(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	x4 := randTensor(rng, 2, 4, 3, 3)
	yHalf := g.Forward(Eval(0.5), x4)

	small := NewGroupNorm(4, 2, Fixed(), 1e-5)
	copy(small.Gamma.Value.Data, g.Gamma.Value.Data[:4])
	copy(small.Beta.Value.Data, g.Beta.Value.Data[:4])
	ySmall := small.Forward(Eval(1), x4)
	for i := range yHalf.Data {
		if math.Abs(yHalf.Data[i]-ySmall.Data[i]) > 1e-12 {
			t.Fatal("sliced group-norm differs from standalone small group-norm")
		}
	}
}

func TestGroupNormGammaGroupMeans(t *testing.T) {
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	for i := range g.Gamma.Value.Data {
		g.Gamma.Value.Data[i] = float64(i)
	}
	means := g.GammaGroupMeans()
	if len(means) != 4 {
		t.Fatalf("want 4 group means, got %d", len(means))
	}
	if means[0] != 0.5 || means[3] != 6.5 {
		t.Fatalf("group means %v", means)
	}
}

func TestGroupNormRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible group count")
		}
	}()
	NewGroupNorm(10, 4, Fixed(), 1e-5)
}

func TestBatchNormTrainingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	b := NewBatchNorm(4, Fixed())
	x := randTensor(rng, 8, 4, 3, 3)
	y := b.Forward(Train(1, rng), x)
	// Per-channel batch mean ≈ 0, var ≈ 1 with identity affine.
	for c := 0; c < 4; c++ {
		mu, va, n := 0.0, 0.0, 0.0
		for s := 0; s < 8; s++ {
			for j := 0; j < 9; j++ {
				mu += y.At(s, c, j/3, j%3)
				n++
			}
		}
		mu /= n
		for s := 0; s < 8; s++ {
			for j := 0; j < 9; j++ {
				d := y.At(s, c, j/3, j%3) - mu
				va += d * d
			}
		}
		va /= n
		if math.Abs(mu) > 1e-8 || math.Abs(va-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v var %v", c, mu, va)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	b := NewBatchNorm(2, Fixed())
	// Feed a stream with known mean 3 and std 2.
	for i := 0; i < 200; i++ {
		x := tensor.New(16, 2)
		for j := range x.Data {
			x.Data[j] = 3 + 2*rng.NormFloat64()
		}
		b.Forward(Train(1, rng), x)
	}
	for c := 0; c < 2; c++ {
		if math.Abs(b.RunMean.Data[c]-3) > 0.3 {
			t.Fatalf("running mean[%d] = %v, want ≈3", c, b.RunMean.Data[c])
		}
		if math.Abs(b.RunVar.Data[c]-4) > 1.0 {
			t.Fatalf("running var[%d] = %v, want ≈4", c, b.RunVar.Data[c])
		}
	}
	// Evaluation must use the running estimates: a batch at the stream
	// statistics should come out roughly standardized.
	x := tensor.New(1000, 2)
	for j := range x.Data {
		x.Data[j] = 3 + 2*rng.NormFloat64()
	}
	y := b.Forward(Eval(1), x)
	if math.Abs(y.Mean()) > 0.1 {
		t.Fatalf("eval-mode output mean %v, want ≈0", y.Mean())
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	b := NewBatchNorm(3, Fixed())
	tensor.InitNormal(b.Gamma.Value, 0.3, rng)
	b.Gamma.Value.Data[0] += 1
	x := randTensor(rng, 4, 3, 2, 2)
	if err := CheckGradients(b, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestBatchNormBackwardPanicsAfterEval: a Backward with no training Forward
// cached — after an evaluation-mode Forward, or a second Backward after the
// first consumed the cache — panics with a clear message instead of
// dereferencing the dropped cache.
func TestBatchNormBackwardPanicsAfterEval(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	b := NewBatchNorm(2, Fixed())
	x := randTensor(rng, 2, 2)
	const want = "BatchNorm.Backward grad [2 2] without a matching Forward"
	b.Forward(Eval(1), x)
	mustPanicWith(t, want, func() { b.Backward(Eval(1), x) })
	ctx := Train(1, rng)
	b.Forward(ctx, x)
	b.Backward(ctx, x)
	mustPanicWith(t, want, func() { b.Backward(ctx, x) })
	b.Forward(ctx, x)
	b.Forward(Eval(1), x)
	mustPanicWith(t, want, func() { b.Backward(ctx, x) })
}

func TestSwitchableBatchNormDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s := NewSwitchableBatchNorm(4, Sliced(4), 3)
	if len(s.Params()) != 6 {
		t.Fatalf("want 6 params (3 widths × γ,β), got %d", len(s.Params()))
	}
	x := randTensor(rng, 4, 4)
	ctx := &Context{Training: true, Rate: 1, WidthIdx: 1, RNG: rng}
	s.Forward(ctx, x)
	// Only the selected BN's running stats move.
	if s.BNs[1].RunMean.L2Norm() == 0 {
		t.Fatal("selected BN running stats did not update")
	}
	if s.BNs[0].RunMean.L2Norm() != 0 || s.BNs[2].RunMean.L2Norm() != 0 {
		t.Fatal("unselected BN running stats were touched")
	}
}

func TestSwitchableBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := NewSwitchableBatchNorm(4, Sliced(2), 2)
	x := randTensor(rng, 3, 2, 2, 2) // width index 1 at rate 0.5 → 2 channels
	ctx := &Context{Training: true, Rate: 0.5, WidthIdx: 1, RNG: rng}
	if err := CheckGradients(s, ctx, x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestGroupNormBackwardMatchesPlainLoop holds Backward, which caches only
// each (sample, group)'s mean and 1/σ and recomputes x̂, to the textbook loop
// over a stored x̂ with its sums in index order: dx, dγ and dβ within 1e-12
// of the sum of their terms' magnitudes (Backward sums in tensor.Sum's lane
// order), at a sliced and the full width, on 4-D and 2-D inputs.
func TestGroupNormBackwardMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, spatial := range [][]int{{5, 5}, {16, 16}, {}} {
		for _, r := range []float64{0.5, 1} {
			g := NewGroupNorm(8, 4, Sliced(2), 1e-5)
			tensor.InitNormal(g.Gamma.Value, 1, rng)
			tensor.InitNormal(g.Beta.Value, 1, rng)
			aC := g.Spec.Active(r, g.C)
			shape := append([]int{3, aC}, spatial...)
			x, dy := randTensor(rng, shape...), randTensor(rng, shape...)
			ctx := &Context{Training: true, Rate: r}
			g.Forward(ctx, x)
			dx := g.Backward(ctx, dy)

			hw, gs := 1, g.C/g.NormGroups
			for _, d := range spatial {
				hw *= d
			}
			n := float64(gs * hw)
			wantG, wantB := make([]float64, aC), make([]float64, aC)
			magG, magB := make([]float64, aC), make([]float64, aC)
			wantDx, magDx := make([]float64, len(dx.Data)), make([]float64, len(dx.Data))
			gamma := g.Gamma.Value.Data
			for b := 0; b < 3; b++ {
				for gi := 0; gi < aC/gs; gi++ {
					seg := (b*aC + gi*gs) * hw
					xs, gv := x.Data[seg:seg+gs*hw], dy.Data[seg:seg+gs*hw]
					mu, va := 0.0, 0.0
					for _, v := range xs {
						mu += v
					}
					mu /= n
					for _, v := range xs {
						va += (v - mu) * (v - mu)
					}
					is := 1 / math.Sqrt(va/n+g.Eps)
					sd, sdh, md, mdh := 0.0, 0.0, 0.0, 0.0
					for i, v := range gv {
						ch := gi*gs + i/hw
						h := (xs[i] - mu) * is
						wantG[ch] += v * h
						magG[ch] += math.Abs(v * h)
						wantB[ch] += v
						magB[ch] += math.Abs(v)
						sd += gamma[ch] * v
						sdh += gamma[ch] * v * h
						md += math.Abs(gamma[ch] * v)
						mdh += math.Abs(gamma[ch] * v * h)
					}
					for i, v := range gv {
						ch := gi*gs + i/hw
						h := (xs[i] - mu) * is
						wantDx[seg+i] = is * (v*gamma[ch] - sd/n - h*sdh/n)
						magDx[seg+i] = is * (math.Abs(v*gamma[ch]) + md/n + math.Abs(h)*mdh/n)
					}
				}
			}
			near := func(name string, got, want, mag []float64) {
				t.Helper()
				for i, w := range want {
					if d := math.Abs(got[i] - w); !(d <= 1e-12*mag[i]) {
						t.Fatalf("spatial %v r=%v: %s[%d] = %v, plain loop %v (|Δ| %.3g of Σ|terms| %.3g)", spatial, r, name, i, got[i], w, d, mag[i])
					}
				}
			}
			near("dx", dx.Data, wantDx, magDx)
			near("dγ", g.Gamma.Grad().Data[:aC], wantG, magG)
			near("dβ", g.Beta.Grad().Data[:aC], wantB, magB)
			g.Gamma.ZeroGrad()
			g.Beta.ZeroGrad()
		}
	}
}

// plainBN is plainBatchNorm's result: each output with, per element, the
// sum of its terms' magnitudes, the scale its rounding error is bounded by.
type plainBN struct {
	y, dx, dgamma, dbeta, runMean, runVar    []float64
	magY, magDx, magG, magB, magMean, magVar []float64
}

// plainBatchNorm is BatchNorm's training step as textbook loops over a
// stored x̂, with every sum in index order: the oracle for
// TestBatchNormTrainMatchesPlainLoop. It reads x and dy as batch×aC planes
// of hw elements and b's parameters and running estimates, and changes
// nothing in b.
func plainBatchNorm(b *BatchNorm, x, dy []float64, batch, aC, hw int) plainBN {
	var o plainBN
	for _, p := range []*[]float64{&o.y, &o.dx, &o.magY, &o.magDx} {
		*p = make([]float64, len(x))
	}
	for _, p := range []*[]float64{&o.dgamma, &o.dbeta, &o.magG, &o.magB, &o.magMean, &o.magVar} {
		*p = make([]float64, aC)
	}
	o.runMean = append([]float64(nil), b.RunMean.Data[:aC]...)
	o.runVar = append([]float64(nil), b.RunVar.Data[:aC]...)
	gamma, beta, m := b.Gamma.Value.Data, b.Beta.Value.Data, b.Momentum
	n := float64(batch * hw)
	xhat := make([]float64, len(x))
	for c := 0; c < aC; c++ {
		var offs []int
		for s := 0; s < batch; s++ {
			for j := 0; j < hw; j++ {
				offs = append(offs, (s*aC+c)*hw+j)
			}
		}
		mu, magMu, va := 0.0, 0.0, 0.0
		for _, i := range offs {
			mu += x[i]
			magMu += math.Abs(x[i])
		}
		mu, magMu = mu/n, magMu/n
		for _, i := range offs {
			va += (x[i] - mu) * (x[i] - mu)
		}
		va /= n
		is := 1 / math.Sqrt(va+b.Eps)
		unbiased := va
		if n > 1 {
			unbiased = va * n / (n - 1)
		}
		o.magMean[c] = math.Abs((1-m)*o.runMean[c]) + m*magMu
		o.magVar[c] = math.Abs((1-m)*o.runVar[c]) + m*unbiased
		o.runMean[c] = (1-m)*o.runMean[c] + m*mu
		o.runVar[c] = (1-m)*o.runVar[c] + m*unbiased
		sd, sdh, md, mdh := 0.0, 0.0, 0.0, 0.0
		for _, i := range offs {
			h := (x[i] - mu) * is
			xhat[i] = h
			o.y[i] = gamma[c]*h + beta[c]
			o.magY[i] = math.Abs(gamma[c])*is*(math.Abs(x[i])+magMu) + math.Abs(beta[c])
			g := dy[i]
			o.dgamma[c] += g * h
			o.magG[c] += math.Abs(g * h)
			o.dbeta[c] += g
			o.magB[c] += math.Abs(g)
			sd += g * gamma[c]
			sdh += g * gamma[c] * h
			md += math.Abs(g * gamma[c])
			mdh += math.Abs(g * gamma[c] * h)
		}
		for _, i := range offs {
			o.dx[i] = is * (dy[i]*gamma[c] - sd/n - xhat[i]*sdh/n)
			o.magDx[i] = is * (math.Abs(dy[i]*gamma[c]) + md/n + math.Abs(xhat[i])*mdh/n)
		}
	}
	return o
}

// TestBatchNormTrainMatchesPlainLoop holds BatchNorm's training Forward and
// Backward, which run on GroupNorm's kernels and cache only each channel's
// mean and 1/σ, to plainBatchNorm: y, dx, dγ, dβ and the running estimates
// within 1e-12 of the sum of their terms' magnitudes (the kernels sum in
// tensor.Sum's lane order). The plane sizes cover the vector block forms
// (4 with a batch of 4, 16, 256), the Go twins (1, 25) and rank-2 inputs, at
// a sliced and the full width.
func TestBatchNormTrainMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const batch = 4
	for _, spatial := range [][]int{{}, {2, 2}, {4, 4}, {5, 5}, {16, 16}} {
		for _, r := range []float64{0.5, 1} {
			b := NewBatchNorm(8, Sliced(2))
			tensor.InitNormal(b.Gamma.Value, 1, rng)
			tensor.InitNormal(b.Beta.Value, 1, rng)
			tensor.InitNormal(b.RunMean, 1, rng)
			for c := range b.RunVar.Data {
				b.RunVar.Data[c] = 0.5 + rng.Float64()
			}
			aC := b.Spec.Active(r, b.C)
			hw := 1
			for _, d := range spatial {
				hw *= d
			}
			shape := append([]int{batch, aC}, spatial...)
			x, dy := randTensor(rng, shape...), randTensor(rng, shape...)
			for i := range x.Data {
				x.Data[i] = 2*x.Data[i] + 0.5
			}
			want := plainBatchNorm(b, x.Data, dy.Data, batch, aC, hw)
			ctx := &Context{Training: true, Rate: r}
			y := b.Forward(ctx, x)
			dx := b.Backward(ctx, dy)
			near := func(name string, got, want, mag []float64) {
				t.Helper()
				for i, w := range want {
					if d := math.Abs(got[i] - w); !(d <= 1e-12*mag[i]) {
						t.Fatalf("spatial %v r=%v: %s[%d] = %v, plain loop %v (|Δ| %.3g of Σ|terms| %.3g)", spatial, r, name, i, got[i], w, d, mag[i])
					}
				}
			}
			near("y", y.Data, want.y, want.magY)
			near("dx", dx.Data, want.dx, want.magDx)
			near("dγ", b.Gamma.Grad().Data[:aC], want.dgamma, want.magG)
			near("dβ", b.Beta.Grad().Data[:aC], want.dbeta, want.magB)
			near("RunMean", b.RunMean.Data[:aC], want.runMean, want.magMean)
			near("RunVar", b.RunVar.Data[:aC], want.runVar, want.magVar)
		}
	}
}

// BenchmarkBatchNormStep times BatchNorm's training Forward plus Backward
// at a wide early activation and a deep narrow one.
func BenchmarkBatchNormStep(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	arena := tensor.NewArena()
	for _, shape := range [][]int{{32, 32, 32, 32}, {32, 64, 8, 8}} {
		bn := NewBatchNorm(shape[1], Fixed())
		x, dy := randTensor(rng, shape...), randTensor(rng, shape...)
		ctx := &Context{Training: true, Rate: 1, Arena: arena}
		b.Run(fmt.Sprint(shape), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bn.Forward(ctx, x)
				bn.Backward(ctx, dy)
				arena.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Size()), "ns/element")
		})
	}
}

// mustPanicWith runs f and fails unless it panics with a message containing
// want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestGroupNormBackwardWithoutForward pins the guard ReLU.Backward has too:
// a Backward with no cached Forward — never run, already consumed by a
// Backward, or of another size — panics with a clear message instead of
// dereferencing the dropped cache.
func TestGroupNormBackwardWithoutForward(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := NewGroupNorm(4, 2, Fixed(), 1e-5)
	ctx := &Context{Training: true}
	x := randTensor(rng, 2, 4, 3, 3)
	const want = "GroupNorm.Backward grad [2 4 3 3] without a matching Forward"
	mustPanicWith(t, want, func() { g.Backward(ctx, x) })
	g.Forward(ctx, x)
	g.Backward(ctx, x)
	mustPanicWith(t, want, func() { g.Backward(ctx, x) })
	g.Forward(ctx, randTensor(rng, 1, 4, 3, 3))
	mustPanicWith(t, want, func() { g.Backward(ctx, x) })
}

// TestFusedConvActBackwardWithoutForward is the same guard on the fused
// Conv→GroupNorm→ReLU, whose Backward reads the GroupNorm's cache.
func TestFusedConvActBackwardWithoutForward(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	chain := NewSequential(Conv3x3(3, 4, Fixed(), Fixed(), rng), NewGroupNorm(4, 2, Fixed(), 1e-5), NewReLU())
	f, ok := Fuse(chain).(*Sequential).Layers[0].(*FusedConvAct)
	if !ok || f.gn == nil {
		t.Fatal("Conv+GN+ReLU did not fuse to the grid pass")
	}
	ctx := &Context{Training: true}
	x, dy := randTensor(rng, 2, 3, 5, 5), randTensor(rng, 2, 4, 5, 5)
	const want = "FusedConvAct.Backward grad [2 4 5 5] without a matching Forward"
	mustPanicWith(t, want, func() { f.Backward(ctx, dy) })
	f.Forward(ctx, x)
	f.Backward(ctx, dy)
	mustPanicWith(t, want, func() { f.Backward(ctx, dy) })
}
