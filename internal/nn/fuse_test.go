package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"modelslicing/internal/tensor"
)

// checkFusedMatches runs the fused view and the original chain on the same
// input and compares within tol (0 means bit-identical).
func checkFusedMatches(t *testing.T, name string, orig Layer, x *tensor.Tensor, r float64, widthIdx int, tol float64) {
	t.Helper()
	fused := Fuse(orig)
	arena := tensor.NewArena()
	for pass := 0; pass < 2; pass++ { // second pass exercises slab reuse
		want := Infer(orig, &Context{Rate: r, WidthIdx: widthIdx}, x)
		got := Infer(fused, &Context{Rate: r, WidthIdx: widthIdx, Arena: arena}, x)
		if !got.SameShape(want) {
			t.Fatalf("%s r=%v: fused shape %v, unfused %v", name, r, got.Shape, want.Shape)
		}
		for i := range got.Data {
			d := math.Abs(got.Data[i] - want.Data[i])
			if (tol == 0 && got.Data[i] != want.Data[i]) || d > tol {
				t.Fatalf("%s r=%v pass=%d: fused[%d]=%g, unfused=%g (|Δ|=%g, tol %g)",
					name, r, pass, i, got.Data[i], want.Data[i], d, tol)
			}
		}
		arena.Reset()
	}
}

func TestFuseStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng), // + BN + ReLU → FusedConvAct
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), // + ReLU → FusedConvAct
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), // + GN + ReLU → FusedConvAct
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 2, 1, Sliced(4), Sliced(4), false, rng), // strided + GN: conv stays, GN+ReLU fuse
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 8, Sliced(4), Sliced(4), true, rng), // + ReLU → FusedDenseAct
		NewReLU(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng), // bare Dense stays
	)
	fused := Fuse(net).(*Sequential)
	wantTypes := []any{
		&FusedConvAct{}, &FusedConvAct{}, &FusedConvAct{}, &Conv2D{}, &FusedNormAct{},
		&GlobalAvgPool{}, &FusedDenseAct{}, &Dense{},
	}
	if len(fused.Layers) != len(wantTypes) {
		t.Fatalf("fused to %d layers, want %d", len(fused.Layers), len(wantTypes))
	}
	for i, l := range fused.Layers {
		if typeName(l) != typeName(wantTypes[i]) {
			t.Fatalf("layer %d: fused to %T, want %T", i, l, wantTypes[i])
		}
	}
	if f := fused.Layers[2].(*FusedConvAct); f.gn != net.Layers[6] || f.relu || f.scales != nil {
		t.Fatalf("Conv+GN+ReLU fused to gn=%p relu=%v scales=%v, want the GroupNorm on the grid and a bias-only epilogue", f.gn, f.relu, f.scales)
	}
	// Parameters are shared, not copied: training the original must be
	// visible through the fused view's Params.
	if len(fused.Params()) != len(net.Params()) {
		t.Fatalf("fused view has %d params, original %d", len(fused.Params()), len(net.Params()))
	}
	for i, p := range fused.Params() {
		if p != net.Params()[i] {
			t.Fatalf("param %d not shared", i)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *FusedConvAct:
		return "FusedConvAct"
	case *FusedDenseAct:
		return "FusedDenseAct"
	case *FusedNormAct:
		return "FusedNormAct"
	case *Conv2D:
		return "Conv2D"
	case *Dense:
		return "Dense"
	case *GlobalAvgPool:
		return "GlobalAvgPool"
	default:
		return "other"
	}
}

// TestFusedConvBNReLU pins the folded BatchNorm epilogue against the unfused
// chain at every rate (tolerance: folding refactors the affine arithmetic).
func TestFusedConvBNReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, bias := range []bool{false, true} {
		net := NewSequential(
			NewConv2D(3, 12, 3, 3, 1, 1, Fixed(), Sliced(4), bias, rng),
			NewBatchNorm(12, Sliced(4)),
			NewReLU(),
		)
		if bias {
			for i, v := range rng.Perm(12) {
				net.Layers[0].(*Conv2D).B.Value.Data[i] = float64(v) / 6
			}
		}
		net.Forward(&Context{Training: true, Rate: 1, RNG: rng}, randTensor(rng, 4, 3, 6, 6))
		for _, r := range inferRates {
			checkFusedMatches(t, "Conv+BN+ReLU", net, randTensor(rng, 3, 3, 6, 6), r, 0, 1e-12)
		}
	}
}

// TestFusedConvSwitchableBN pins the per-width folded statistics: each width
// index must reproduce its own BatchNorm's running estimates.
func TestFusedConvSwitchableBN(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewSwitchableBatchNorm(8, Sliced(4), len(inferRates)),
		NewReLU(),
	)
	for i, r := range inferRates {
		net.Forward(&Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}, randTensor(rng, 4, 3, 5, 5))
	}
	for i, r := range inferRates {
		checkFusedMatches(t, "Conv+SBN+ReLU", net, randTensor(rng, 2, 3, 5, 5), r, i, 1e-12)
	}
}

// TestFusedBitIdenticalChains pins the fusions that do not refactor any
// arithmetic — Conv→ReLU, Dense→ReLU, GroupNorm→ReLU — to bit equality.
func TestFusedBitIdenticalChains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	convReLU := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng),
		NewReLU(),
	)
	dense := NewDense(16, 12, Sliced(4), Sliced(4), true, rng)
	dense.Rescale = true
	denseReLU := NewSequential(dense, NewReLU())
	gnReLU := NewSequential(
		NewGroupNorm(16, 4, Sliced(4), 1e-5),
		NewReLU(),
	)
	for i := range gnReLU.Layers[0].(*GroupNorm).Gamma.Value.Data {
		gnReLU.Layers[0].(*GroupNorm).Gamma.Value.Data[i] = 0.5 + rng.Float64()
		gnReLU.Layers[0].(*GroupNorm).Beta.Value.Data[i] = rng.NormFloat64()
	}
	for _, r := range inferRates {
		checkFusedMatches(t, "Conv+ReLU", convReLU, randTensor(rng, 2, 3, 6, 6), r, 0, 0)
		aIn := dense.InSpec.Active(r, dense.In)
		checkFusedMatches(t, "Dense+ReLU", denseReLU, randTensor(rng, 5, aIn), r, 0, 0)
		aC := gnReLU.Layers[0].(*GroupNorm).Spec.Active(r, 16)
		checkFusedMatches(t, "GN+ReLU", gnReLU, randTensor(rng, 2, aC, 3, 3), r, 0, 0)
	}
}

// TestFusedResidualRecursion verifies containers are rebuilt with fused
// children and still match the unfused graph.
func TestFusedResidualRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	body := NewSequential(
		Conv3x3(8, 8, Sliced(4), Sliced(4), rng),
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
	)
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewResidual(body, nil),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
	)
	fused := Fuse(net).(*Sequential)
	res, ok := fused.Layers[1].(*Residual)
	if !ok {
		t.Fatalf("layer 1 fused to %T, want *Residual", fused.Layers[1])
	}
	if layers := res.Body.(*Sequential).Layers; len(layers) != 1 {
		t.Fatalf("residual body fused to %d layers, want one", len(layers))
	} else if f, ok := layers[0].(*FusedConvAct); !ok || f.gn != body.Layers[1] {
		t.Fatalf("residual body Conv+GN+ReLU fused to %T, want a FusedConvAct carrying the GroupNorm", layers[0])
	}
	for _, r := range inferRates {
		checkFusedMatches(t, "residual", net, randTensor(rng, 2, 3, 6, 6), r, 0, 0)
	}
}

// TestFusedForwardBackwardDelegate verifies the fused view remains a
// well-formed training Layer: Forward matches the original chain and
// Backward accumulates into the shared parameters.
func TestFusedForwardBackwardDelegate(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
		NewReLU(),
	)
	fused := Fuse(net).(*Sequential)
	x := randTensor(rng, 2, 3, 5, 5)
	ctx := &Context{Training: true, Rate: 1, RNG: rng}
	want := net.Forward(ctx, x)
	got := fused.Forward(ctx, x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fused Forward differs at %d", i)
		}
	}
	dy := randTensor(rng, 2, 4)
	fused.Backward(ctx, dy)
	nonzero := false
	for _, p := range net.Params() {
		for _, g := range p.Grad().Data {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("fused Backward did not accumulate into the shared parameter gradients")
	}
}

// TestFuseMarksShiftedRuns pins the table of shifted-row runs Fuse builds
// and holds the exact-tier pass that serves them to the per-layer walk of
// the same fused layers bit for bit, at batches with a short last sample
// group. A run chains same convs of one padding (grid pass, plain
// copy-out, folded copy-out), opened by a conv or a max-pool; a padding
// change, a norm between and a strided conv end it.
func TestFuseMarksShiftedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	gn := func(c int) *GroupNorm {
		g := NewGroupNorm(c, 4, Sliced(4), 1e-5)
		tensor.InitNormal(g.Gamma.Value, 1, rng)
		tensor.InitNormal(g.Beta.Value, 1, rng)
		return g
	}
	bn := NewBatchNorm(8, Sliced(4))
	tensor.InitNormal(bn.RunMean, 0.1, rng)
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng), gn(8), NewReLU(), // 0: grid pass
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), gn(8), NewReLU(), // 1
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng), // 2: plain
		NewMaxPool2D(2, 2), // 3
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), bn, NewReLU(), // 4: folded
		NewConv2D(8, 8, 5, 5, 1, 2, Sliced(4), Sliced(4), true, rng), NewReLU(), // 5: another padding
		NewConv2D(8, 8, 5, 5, 1, 2, Sliced(4), Sliced(4), true, rng), // 6
		gn(8), NewReLU(), // 7
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), // 8
		NewConv2D(8, 8, 3, 3, 2, 1, Sliced(4), Sliced(4), false, rng), // 9: strided
		NewGlobalAvgPool(),
	)
	fused := Fuse(net).(*Sequential)
	want := map[int]int{0: 3, 3: 2, 5: 2}
	for i := range fused.Layers {
		got := 0
		if fused.runs != nil {
			got = fused.runs[i]
		}
		if got != want[i] {
			t.Fatalf("layer %d (%T): run of %d layers, want %d", i, fused.Layers[i], got, want[i])
		}
	}
	arena := tensor.NewArena()
	for _, batch := range []int{1, 4, 11} {
		x := randTensor(rng, batch, 3, 8, 8)
		for _, r := range []float64{0.25, 0.5, 1} {
			ctx := &Context{Rate: r, Arena: arena}
			walk := x
			for _, l := range fused.Layers {
				walk = Infer(l, ctx, walk)
			}
			got := Infer(fused, ctx, x)
			for i, v := range walk.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("batch %d r=%v: served [%d]=%v, layer walk %v", batch, r, i, got.Data[i], v)
				}
			}
			arena.Reset()
		}
		// A nil context serves the runs too: full width, heap activations.
		want, got := x, Infer(fused, nil, x)
		for _, l := range fused.Layers {
			want = Infer(l, nil, want)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("batch %d, nil context: served [%d]=%v, layer walk %v", batch, i, got.Data[i], v)
			}
		}
	}
}

// TestFusedInferAllocsFree pins the fused path's zero-allocation steady
// state (in particular: the stack epilogues must not escape to the heap).
func TestFusedInferAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng),
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng), // the grid pass
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
		NewReLU(),
	)
	net.Forward(&Context{Training: true, Rate: 1, RNG: rng}, randTensor(rng, 2, 3, 6, 6))
	fused := Fuse(net)
	if f, ok := fused.(*Sequential).Layers[1].(*FusedConvAct); !ok || f.gn == nil {
		t.Fatalf("layer 1 fused to %T, want the Conv+GN+ReLU FusedConvAct", fused.(*Sequential).Layers[1])
	}
	// Batch 4 is one chunk of the trunk; one sample past a chunk (the
	// trunk's largest activation at r = 0.5 is a conv's 4×6×6 output) takes
	// two, whose activations and headers the arena must recycle.
	for _, batch := range []int{4, TrunkChunkBytes/(8*4*6*6) + 1} {
		x := randTensor(rng, batch, 3, 6, 6)
		arena := tensor.NewArena()
		ctx := &Context{Rate: 0.5, Arena: arena}
		pass := func() {
			Infer(fused, ctx, x)
			arena.Reset()
		}
		pass()
		pass()
		if allocs := testing.AllocsPerRun(100, pass); allocs > 0 {
			t.Fatalf("batch %d: fused arena-backed inference allocates %v times per pass, want 0", batch, allocs)
		}
	}
}

// TestFusedConvGroupNormBitIdentical holds a same Conv→GroupNorm→ReLU,
// fused into one FusedConvAct, to the unfused chain bit for bit at every
// rate and on both tiers, each on the grid pass. It sweeps 3×3 and 5×5
// kernels; 16×16, 8×8 and 4×4 planes (the block bodies) and 6×5 (the Go
// twin); batches 1, 3 and 11 (a short last sample group on the small
// planes); a bias or none; norm groups equal to the slice groups and twice
// them.
func TestFusedConvGroupNormBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	routes := []struct {
		name string
		ctx  Context
	}{{"exact", Context{}}, {"fma", Context{Tier: tensor.TierFMA}}}
	for _, k := range []int{3, 5} {
		for _, plane := range [][2]int{{16, 16}, {8, 8}, {4, 4}, {6, 5}} {
			for _, bias := range []bool{false, true} {
				for _, normGroups := range []int{4, 8} {
					conv := NewConv2D(6, 16, k, k, 1, k/2, Fixed(), Sliced(4), bias, rng)
					gn := NewGroupNorm(16, normGroups, Sliced(4), 1e-5)
					for c := range gn.Gamma.Value.Data {
						gn.Gamma.Value.Data[c] = rng.NormFloat64()
						gn.Beta.Value.Data[c] = rng.NormFloat64()
						if bias {
							conv.B.Value.Data[c] = rng.NormFloat64()
						}
					}
					chain := NewSequential(conv, gn, NewReLU())
					fused := Fuse(chain)
					if f, ok := fused.(*Sequential).Layers[0].(*FusedConvAct); !ok || f.gn != gn {
						t.Fatalf("Conv+GN+ReLU fused to %T, want a FusedConvAct carrying the GroupNorm", fused.(*Sequential).Layers[0])
					}
					arena := tensor.NewArena()
					for _, batch := range []int{1, 3, 11} {
						x := randTensor(rng, batch, 6, plane[0], plane[1])
						for _, r := range inferRates {
							for _, route := range routes {
								ctx := route.ctx
								ctx.Rate = r
								want := Infer(chain, &ctx, x)
								ctx.Arena = arena
								got := Infer(fused, &ctx, x)
								if !got.SameShape(want) {
									t.Fatalf("fused shape %v, unfused %v", got.Shape, want.Shape)
								}
								for i, v := range want.Data {
									if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
										t.Fatalf("k=%d %dx%d bias=%v norm groups %d batch %d r=%v %s: fused[%d]=%v, unfused %v",
											k, plane[0], plane[1], bias, normGroups, batch, r, route.name, i, got.Data[i], v)
									}
								}
								arena.Reset()
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkConvGroupNormInfer times VGG13Mini's eight same Conv→GroupNorm→
// ReLU chains at batch 8, fused (GroupNorm on the conv's product grid) and
// unfused (conv output copied out, then GroupNorm+ReLU), back to back in
// one op so host drift hits both alike: µs per batch through all eight
// for each, and their ratio.
func BenchmarkConvGroupNormInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	chains := make([]*Sequential, len(vggMiniConvs))
	for li, s := range vggMiniConvs {
		inSpec := Sliced(4)
		if li == 0 {
			inSpec = Fixed()
		}
		chains[li] = NewSequential(Conv3x3(s.in, s.out, inSpec, Sliced(4), rng), NewGroupNorm(s.out, 4, Sliced(4), 1e-5), NewReLU())
	}
	for _, r := range []float64{0.25, 1} {
		fused := make([]Layer, len(chains))
		inputs := make([]*tensor.Tensor, len(chains))
		for li, c := range chains {
			fused[li] = Fuse(c)
			aIn, _ := c.Layers[0].(*Conv2D).Active(r)
			inputs[li] = randTensor(rng, 8, aIn, vggMiniConvs[li].hw, vggMiniConvs[li].hw)
		}
		b.Run(fmt.Sprintf("r%g", r), func(b *testing.B) {
			arena := tensor.NewArena()
			ctx := &Context{Rate: r, Arena: arena}
			var tFused, tUnfused time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for li, c := range chains {
					Infer(c, ctx, inputs[li])
					arena.Reset()
				}
				t1 := time.Now()
				for li, f := range fused {
					Infer(f, ctx, inputs[li])
					arena.Reset()
				}
				tFused += time.Since(t1)
				tUnfused += t1.Sub(t0)
			}
			b.ReportMetric(float64(tUnfused.Microseconds())/float64(b.N), "unfused-µs")
			b.ReportMetric(float64(tFused.Microseconds())/float64(b.N), "fused-µs")
			b.ReportMetric(float64(tFused)/float64(tUnfused), "fused/unfused")
		})
	}
}
