package slicing

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// Trainer.Step runs each scheduled sub-network on a pooled arena (the
// layers' Forward/Backward outputs and caches come from it) and resets it
// after that sub-network's Backward. The tests below pin that path to the
// heap path bit for bit, bound its allocations, and check that nothing of a
// step stays reachable once it has returned.

// arenaCases are the models the arena-backed step is pinned on: the
// GroupNorm VGG the benchmark trains, a ResNet (Residual sums, strided 1×1
// shortcuts, whose data gradient goes through Col2Im), a BatchNorm VGG with a
// flattened dense head and dropout, and the NNLM (embedding, two rescaled
// LSTMs with dropout, a time-flattened decoder). batch builds each model's
// input batch of n samples.
var arenaCases = []struct {
	name  string
	build func(rng *rand.Rand) nn.Layer
	batch func(n int, seed int64) train.Batch
}{
	{"vgg13mini-groupnorm", func(rng *rand.Rand) nn.Layer {
		m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
		return m
	}, imageBatch},
	{"resnetmini-groupnorm", func(rng *rand.Rand) nn.Layer {
		m, _ := models.NewResNet(models.ResNetMini(4, models.NormGroup, 1), rng)
		return m
	}, imageBatch},
	{"vgg13mini-batchnorm-fc", func(rng *rand.Rand) nn.Layer {
		cfg := models.VGG13Mini(4, models.NormBatch, 1)
		cfg.FCDims, cfg.Dropout = []int{32}, 0.25
		m, _ := models.NewVGG(cfg, rng)
		return m
	}, imageBatch},
	{"nnlmmini", func(rng *rand.Rand) nn.Layer {
		return models.NewNNLM(models.NNLMMini(tokenVocab, 4), rng)
	}, tokenBatch},
}

// imageBatch is a random [n, 3, 16, 16] batch with labels in [0, 10).
func imageBatch(n int, seed int64) train.Batch {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return train.Batch{X: x, Labels: labels}
}

// tokenVocab and tokenSeqLen size the language-model batches.
const tokenVocab, tokenSeqLen = 40, 20

// tokenBatch is n random token streams as a [tokenSeqLen, n] id batch with
// one next-token label per (step, stream), laid out as data.LMBatches does.
func tokenBatch(n int, seed int64) train.Batch {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(tokenSeqLen, n)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(tokenVocab))
	}
	labels := make([]int, tokenSeqLen*n)
	for i := range labels {
		labels[i] = rng.Intn(tokenVocab)
	}
	return train.Batch{X: x, Labels: labels}
}

// diffBits returns the first index at which a and b differ in their bits,
// or -1.
func diffBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// heapStep is Trainer.Step written out by hand on the heap (no arena): the
// oracle of the arena-backed step.
func heapStep(model nn.Layer, rates RateList, sched Scheduler, opt *train.SGD, rng *rand.Rand, b train.Batch) []float64 {
	lt := sched.Next(rng)
	var losses []float64
	for _, r := range lt {
		ctx := &nn.Context{Training: true, Rate: r, WidthIdx: rates.WidthIdx(r), RNG: rng}
		logits := model.Forward(ctx, b.X)
		loss, dy := nn.SoftmaxCrossEntropy(logits, b.Labels)
		model.Backward(ctx, dy)
		losses = append(losses, loss)
	}
	params := model.Params()
	if n := len(lt); n > 1 {
		for _, p := range params {
			p.Grad().Scale(1 / float64(n))
		}
	}
	opt.Step(params)
	return losses
}

func TestTrainerArenaBitIdentical(t *testing.T) {
	rates := NewRateList(0.25, 4)
	for _, tc := range arenaCases {
		t.Run(tc.name, func(t *testing.T) {
			batch := tc.batch(8, 31)
			a, h := tc.build(rand.New(rand.NewSource(32))), tc.build(rand.New(rand.NewSource(32)))
			rngA, rngH := rand.New(rand.NewSource(33)), rand.New(rand.NewSource(33))
			tr := NewTrainer(a, rates, NewRMinMax(rates), train.NewSGD(0.05, 0.9, 5e-4), rngA)
			sched, opt := NewRMinMax(rates), train.NewSGD(0.05, 0.9, 5e-4)
			pa, ph := a.Params(), h.Params()
			for step := 0; step < 5; step++ {
				got := tr.Step(batch).Losses
				want := heapStep(h, rates, sched, opt, rngH, batch)
				if diffBits(got, want) >= 0 {
					t.Fatalf("step %d losses %v, heap oracle %v", step, got, want)
				}
				for i := range pa {
					if j := diffBits(pa[i].Value.Data, ph[i].Value.Data); j >= 0 {
						t.Fatalf("step %d %s[%d] = %v, heap oracle %v", step, pa[i].Name, j, pa[i].Value.Data[j], ph[i].Value.Data[j])
					}
				}
			}
			// The optimizer zeroes the gradients, so compare those on bare
			// passes: the arena-backed one twice, the second on a slab the
			// first has grown, against the heap one.
			arena := tensor.NewArena()
			for _, r := range []float64{rates.Min(), 1, rates.Min(), 1} {
				// The NNLM has no input gradient: its Embedding returns nil.
				var dx [2][]float64
				for k, m := range []nn.Layer{a, h} {
					train.ZeroGrad(m.Params())
					ctx := &nn.Context{Training: true, Rate: r, WidthIdx: tr.Rates.WidthIdx(r), RNG: rand.New(rand.NewSource(34))}
					if k == 0 {
						ctx.Arena = arena
					}
					_, dy := nn.SoftmaxCrossEntropy(m.Forward(ctx, batch.X), batch.Labels)
					if d := m.Backward(ctx, dy); d != nil {
						dx[k] = d.Clone().Data
					}
				}
				arena.Reset()
				if len(dx[0]) != len(dx[1]) {
					t.Fatalf("rate %v input gradient of %d elements, heap %d", r, len(dx[0]), len(dx[1]))
				}
				if j := diffBits(dx[0], dx[1]); j >= 0 {
					t.Fatalf("rate %v input gradient [%d] = %v, heap %v", r, j, dx[0][j], dx[1][j])
				}
				for i := range pa {
					if j := diffBits(pa[i].Grad().Data, ph[i].Grad().Data); j >= 0 {
						t.Fatalf("rate %v %s gradient [%d] = %v, heap %v", r, pa[i].Name, j, pa[i].Grad().Data[j], ph[i].Grad().Data[j])
					}
				}
			}
		})
	}
}

// fusedConvActs counts the FusedConvActs in a fused layer tree.
func fusedConvActs(l nn.Layer) int {
	switch v := l.(type) {
	case *nn.FusedConvAct:
		return 1
	case *nn.Sequential:
		n := 0
		for _, c := range v.Layers {
			n += fusedConvActs(c)
		}
		return n
	case *nn.Residual:
		n := fusedConvActs(v.Body)
		if v.Short != nil {
			n += fusedConvActs(v.Short)
		}
		return n
	}
	return 0
}

// doubleNormVGG is a small VGG whose GroupNorms have two norm groups per
// slice group (models.newNorm ties the two counts together).
func doubleNormVGG(rng *rand.Rand) nn.Layer {
	block := func(in, out int, inSpec nn.SliceSpec) []nn.Layer {
		return []nn.Layer{nn.Conv3x3(in, out, inSpec, nn.Sliced(4), rng), nn.NewGroupNorm(out, 8, nn.Sliced(4), 1e-5), nn.NewReLU()}
	}
	var layers []nn.Layer
	layers = append(layers, block(3, 16, nn.Fixed())...)
	layers = append(layers, nn.NewMaxPool2D(2, 2))
	layers = append(layers, block(16, 32, nn.Sliced(4))...)
	layers = append(layers, nn.NewMaxPool2D(2, 2))
	layers = append(layers, block(32, 32, nn.Sliced(4))...)
	head := nn.NewDense(32, 10, nn.Sliced(4), nn.Fixed(), true, rng)
	head.Rescale = true
	return nn.NewSequential(append(layers, nn.NewGlobalAvgPool(), head)...)
}

// TestTrainerFusedMatchesChain holds the Trainer, which steps the fused
// view (each same Conv→GroupNorm→ReLU one operator on the conv's batch
// workers), to the unfused chain stepped by hand (heapStep), bit for bit in
// every loss and parameter over five R-min-max steps. Batch 13 leaves a
// short last sample group on the 8×8 and 4×4 planes; GOMAXPROCS 1 runs one
// batch worker and 2 splits the samples between two.
func TestTrainerFusedMatchesChain(t *testing.T) {
	rates := NewRateList(0.25, 4)
	cases := []struct {
		name  string
		build func(rng *rand.Rand) nn.Layer
	}{
		{arenaCases[0].name, arenaCases[0].build},
		{arenaCases[1].name, arenaCases[1].build},
		{"vgg-two-norm-groups-per-slice-group", doubleNormVGG},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				batch := imageBatch(13, 41)
				a, h := tc.build(rand.New(rand.NewSource(42))), tc.build(rand.New(rand.NewSource(42)))
				rngA, rngH := rand.New(rand.NewSource(43)), rand.New(rand.NewSource(43))
				tr := NewTrainer(a, rates, NewRMinMax(rates), train.NewSGD(0.05, 0.9, 5e-4), rngA)
				if fusedConvActs(tr.net) == 0 {
					t.Fatal("the trainer's fused view has no Conv→GroupNorm→ReLU operator")
				}
				sched, opt := NewRMinMax(rates), train.NewSGD(0.05, 0.9, 5e-4)
				pa, ph := a.Params(), h.Params()
				for step := 0; step < 5; step++ {
					got := tr.Step(batch).Losses
					want := heapStep(h, rates, sched, opt, rngH, batch)
					if diffBits(got, want) >= 0 {
						t.Fatalf("step %d losses %v, unfused chain %v", step, got, want)
					}
					for i := range pa {
						if j := diffBits(pa[i].Value.Data, ph[i].Value.Data); j >= 0 {
							t.Fatalf("step %d %s[%d] = %v, unfused chain %v", step, pa[i].Name, j, pa[i].Value.Data[j], ph[i].Value.Data[j])
						}
					}
				}
			})
		}
	}
}

// stepAllocsBound is what a VGG13Mini R-min-max step at batch 32 allocates
// (68) plus 10 %: Conv2D's per-call closures (60) and each sub-network's
// context and loss gradient. It holds at GOMAXPROCS=1, where parallelFor
// runs inline, and at 2, where its regions run on persistent helpers.
const stepAllocsBound = 75

func TestTrainerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design")
	}
	rates := NewRateList(0.25, 4)
	rng := rand.New(rand.NewSource(35))
	tr := NewTrainer(arenaCases[0].build(rng), rates, NewRMinMax(rates), train.NewSGD(0.01, 0.9, 0), rng)
	batch := imageBatch(32, 36)
	tr.Step(batch) // grows the pooled arena to the full-width sub-network
	if allocs := testing.AllocsPerRun(5, func() { tr.Step(batch) }); allocs > stepAllocsBound {
		t.Errorf("a step allocates %v times, want ≤ %v", allocs, stepAllocsBound)
	}
}

// TestTrainerStepAllocsTwoProcs is TestTrainerStepAllocs at GOMAXPROCS=2.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where parallelFor runs inline,
// so it would not see a region that spawns goroutines; this counts the
// process's mallocs over whole steps instead. Those include whatever the
// runtime and other goroutines allocate meanwhile, so it takes the least of
// three 10-step counts.
func TestTrainerStepAllocsTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race by design")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rates := NewRateList(0.25, 4)
	rng := rand.New(rand.NewSource(35))
	tr := NewTrainer(arenaCases[0].build(rng), rates, NewRMinMax(rates), train.NewSGD(0.01, 0.9, 0), rng)
	batch := imageBatch(32, 36)
	tr.Step(batch) // grows the pooled arena and starts the helpers
	const steps = 10
	least := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			tr.Step(batch)
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/steps)
	}
	if least > stepAllocsBound {
		t.Errorf("a step at GOMAXPROCS=2 allocates %v times (least of three runs), want ≤ %v", least, stepAllocsBound)
	}
}

// TestTrainerReleasesStepMemory holds every layer to its release rule: a
// cache left pointing into the step arena after Backward would keep its
// whole slab (the full-width sub-network's activations and gradients)
// reachable through the model.
func TestTrainerReleasesStepMemory(t *testing.T) {
	rates := NewRateList(0.25, 4)
	for _, tc := range arenaCases {
		t.Run(tc.name, func(t *testing.T) {
			batch := tc.batch(32, 37)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			rng := rand.New(rand.NewSource(38))
			model := tc.build(rng)
			tr := NewTrainer(model, rates, NewRMinMax(rates), train.NewSGD(0.01, 0.9, 0), rng)
			tr.Step(batch)
			tr.Step(batch)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			var params int64
			for _, p := range tr.params {
				params += 8 * int64(len(p.Value.Data))
			}
			// Values, gradients and momentum, plus resident packs and 2 MB.
			bound := 3*params + nn.PackCacheBytes(model) + 2<<20
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
				t.Errorf("%s heap after a step grew %.1f MB, want ≤ %.1f MB",
					tc.name, float64(grew)/1e6, float64(bound)/1e6)
			}
			runtime.KeepAlive(tr)
		})
	}
}

// BenchmarkTrainerStep times one VGG13Mini step at batch 32 with the
// scheduler pinned to each end of the rate list.
func BenchmarkTrainerStep(b *testing.B) {
	rates := NewRateList(0.25, 4)
	rng := rand.New(rand.NewSource(39))
	tr := NewTrainer(arenaCases[0].build(rng), rates, nil, train.NewSGD(0.01, 0.9, 0), rng)
	batch := imageBatch(32, 40)
	for _, r := range []float64{rates.Min(), 1} {
		tr.Sched = Fixed{Rate: r}
		b.Run(fmt.Sprintf("r%g", r), func(b *testing.B) {
			tr.Step(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/step")
		})
	}
}

// TestTrainerFixedRateMatchesPlainLoop holds conventional training through
// the Trainer (RateList{1}, Fixed{1}: the fused view on the step arena) to
// the plain Forward → SoftmaxCrossEntropy → Backward → SGD loop on the
// unfused heap model, bit for bit in every loss and parameter. The models
// are the width-scaled, single-group fixed baselines the experiments train.
func TestTrainerFixedRateMatchesPlainLoop(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) nn.Layer
	}{
		{"vgg13mini-groupnorm-x0.75", func(rng *rand.Rand) nn.Layer {
			m, _ := models.NewVGG(models.VGG13Mini(1, models.NormGroup, 1).ScaleWidths(3, 4), rng)
			return m
		}},
		{"resnetmini-groupnorm-x0.5", func(rng *rand.Rand) nn.Layer {
			m, _ := models.NewResNet(models.ResNetMini(1, models.NormGroup, 1).ScaleWidths(1, 2), rng)
			return m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, h := tc.build(rand.New(rand.NewSource(51))), tc.build(rand.New(rand.NewSource(51)))
			rngA, rngH := rand.New(rand.NewSource(52)), rand.New(rand.NewSource(52))
			tr := NewTrainer(a, RateList{1}, Fixed{Rate: 1}, train.NewSGD(0.05, 0.9, 1e-4), rngA)
			if fusedConvActs(tr.net) == 0 {
				t.Fatal("the trainer's fused view has no Conv→GroupNorm→ReLU operator")
			}
			opt := train.NewSGD(0.05, 0.9, 1e-4)
			pa, ph := a.Params(), h.Params()
			for step := 0; step < 4; step++ {
				batch := imageBatch(13, int64(53+step))
				got := tr.Step(batch).Losses
				ctx := &nn.Context{Training: true, Rate: 1, RNG: rngH}
				want, dy := nn.SoftmaxCrossEntropy(h.Forward(ctx, batch.X), batch.Labels)
				h.Backward(ctx, dy)
				opt.Step(h.Params())
				if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
					t.Fatalf("step %d losses %v, plain loop %v", step, got, want)
				}
				for i := range pa {
					if j := diffBits(pa[i].Value.Data, ph[i].Value.Data); j >= 0 {
						t.Fatalf("step %d %s[%d] = %v, plain loop %v", step, pa[i].Name, j, pa[i].Value.Data[j], ph[i].Value.Data[j])
					}
				}
			}
		})
	}
}
