package baselines

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/cost"
	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

func tinyImages() *data.Images {
	cfg := data.CIFARLike(80, 40)
	cfg.H, cfg.W = 8, 8
	cfg.Classes = 4
	cfg.Noise = 0.4
	cfg.SharedWeight = 0.4
	return data.GenerateImages(cfg)
}

func tinyVGG(norm models.Norm, rng *rand.Rand) (*nn.Sequential, []int, models.VGGConfig) {
	cfg := models.VGGConfig{
		Name: "tiny", InChannels: 3, InputHW: 8,
		StageWidths: []int{8, 8}, StageBlocks: []int{1, 1},
		PoolAfter: []bool{true, false},
		Classes:   4, Groups: 4, Norm: norm, NumWidths: 1,
	}
	m, taps := models.NewVGG(cfg, rng)
	return m, taps, cfg
}

func TestMultiClassifierTrainsAndEvaluates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := tinyImages()
	backbone, taps, cfg := tinyVGG(models.NormGroup, rng)
	mc := NewMultiClassifierCNN(backbone, taps, cfg.StageWidths, cfg.Classes, rng)
	if mc.NumExits() != 2 {
		t.Fatalf("exits %d", mc.NumExits())
	}
	opt := train.NewSGD(0.05, 0.9, 1e-4)
	var first, last []float64
	for epoch := 0; epoch < 8; epoch++ {
		for _, b := range d.TrainBatches(16, false, rng) {
			ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
			losses := mc.TrainStep(ctx, b, opt)
			if first == nil {
				first = append([]float64(nil), losses...)
			}
			last = losses
		}
	}
	for k := range last {
		if last[k] >= first[k] {
			t.Fatalf("exit %d loss did not decrease: %.3f → %.3f", k, first[k], last[k])
		}
	}
	for k := 0; k < mc.NumExits(); k++ {
		if res := train.Evaluate(mc.ExitModel(k), 1, 0, d.TestBatches(16)); res.N == 0 {
			t.Fatalf("exit %d evaluation %+v", k, res)
		}
	}
	// Later exits must cost more.
	in := []int{3, 8, 8}
	if mc.ExitCost(1, in) <= mc.ExitCost(0, in) {
		t.Fatal("exit costs must increase with depth")
	}
}

func TestMultiClassifierParamsIncludeHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	backbone, taps, cfg := tinyVGG(models.NormGroup, rng)
	nBackbone := len(backbone.Params())
	mc := NewMultiClassifierCNN(backbone, taps, cfg.StageWidths, cfg.Classes, rng)
	if len(mc.Params()) != nBackbone+4 {
		t.Fatalf("params %d, want backbone %d + 2 heads × (W,b)", len(mc.Params()), nBackbone)
	}
}

func TestPruneVGGIdentityAtFullKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _, _ := tinyVGG(models.NormBatch, rng)
	// Run one training batch so BN has non-trivial running stats.
	d := tinyImages()
	b := d.TrainBatches(16, false, rng)[0]
	ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
	logits := m.Forward(ctx, b.X)
	_, dy := nn.SoftmaxCrossEntropy(nil, logits, b.Labels)
	m.Backward(ctx, dy)

	pruned := PruneVGG(m, 1.0, rng)
	x := d.TestBatches(8)[0].X
	want := m.Forward(nn.Eval(1), x)
	got := pruned.Forward(nn.Eval(1), x)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-10 {
			t.Fatal("keepFrac=1 pruning must be the identity")
		}
	}
}

func TestPruneVGGReducesParamsAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, _, _ := tinyVGG(models.NormBatch, rng)
	pruned := PruneVGG(m, 0.5, rng)
	in := []int{3, 8, 8}
	pf, _ := cost.Measure(m, in, 1)
	pp, _ := cost.Measure(pruned, in, 1)
	if pp.Params >= pf.Params || pp.MACs >= pf.MACs {
		t.Fatalf("pruned %d params / %d MACs not smaller than %d / %d",
			pp.Params, pp.MACs, pf.Params, pf.MACs)
	}
	d := tinyImages()
	y := pruned.Forward(nn.Eval(1), d.TestBatches(4)[0].X)
	if y.Dim(1) != 4 || !y.AllFinite() {
		t.Fatalf("pruned output %v", y.Shape)
	}
}

func TestPruneVGGRejectsGroupNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _, _ := tinyVGG(models.NormGroup, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-BatchNorm model")
		}
	}()
	PruneVGG(m, 0.5, rng)
}

func TestL1GammaPenaltyDrivesSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, _, _ := tinyVGG(models.NormBatch, rng)
	d := tinyImages()
	opt := train.NewSGD(0.05, 0.9, 0)
	sumAbsGamma := func() float64 {
		s := 0.0
		for _, p := range m.Params() {
			if p.Name == "bn.gamma" {
				for _, v := range p.Value.Data {
					s += math.Abs(v)
				}
			}
		}
		return s
	}
	before := sumAbsGamma()
	for epoch := 0; epoch < 4; epoch++ {
		for _, b := range d.TrainBatches(16, false, rng) {
			ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
			logits := m.Forward(ctx, b.X)
			_, dy := nn.SoftmaxCrossEntropy(nil, logits, b.Labels)
			m.Backward(ctx, dy)
			L1GammaPenalty(m, 0.01)
			opt.Step(m.Params())
		}
	}
	after := sumAbsGamma()
	if after >= before {
		t.Fatalf("L1 penalty should shrink Σ|γ|: %.3f → %.3f", before, after)
	}
}

func TestPruneResNetIdentityAtFullKeepAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := models.ResNetMini(4, models.NormBatch, 1)
	m, _ := models.NewResNet(cfg, rng)
	d := tinyImages()
	// One training pass to populate BN statistics.
	b := d.TrainBatches(16, false, rng)[0]
	ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
	logits := m.Forward(ctx, b.X)
	if logits.Dim(1) != 10 {
		t.Fatalf("resnet logits %v", logits.Shape)
	}
	_, dy := nn.SoftmaxCrossEntropy(nil, logits, b.Labels)
	m.Backward(ctx, dy)

	x := d.TestBatches(4)[0].X
	same := PruneResNet(m, 1.0, rng)
	want := m.Forward(nn.Eval(1), x)
	got := same.Forward(nn.Eval(1), x)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-10 {
			t.Fatal("keepFrac=1 ResNet pruning must be the identity")
		}
	}
	pruned := PruneResNet(m, 0.5, rng)
	in := []int{3, 8, 8}
	pf, _ := cost.Measure(m, in, 1)
	pp, _ := cost.Measure(pruned, in, 1)
	if pp.MACs >= pf.MACs {
		t.Fatal("mid-channel pruning must reduce MACs")
	}
	y := pruned.Forward(nn.Eval(1), x)
	if !y.AllFinite() {
		t.Fatal("pruned ResNet output not finite")
	}
}

func TestSkipNetLiteSkipsAndCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := models.ResNetMini(4, models.NormGroup, 1)
	m, _ := models.NewResNet(cfg, rng)
	s := NewSkipNetLite(m, 0.2)
	if s.NumSkippable() != 3 {
		// 2 blocks per stage; the first block of each stage has a
		// projection shortcut → 1 skippable per stage.
		t.Fatalf("skippable %d, want 3", s.NumSkippable())
	}
	d := tinyImages()
	in := []int{3, 8, 8}
	full := s.CurrentCost(in)
	s.MeasureContributions(d.TestBatches(16))
	skipped := s.SkipLowest(2)
	if len(skipped) != 2 {
		t.Fatalf("skipped %v", skipped)
	}
	reduced := s.CurrentCost(in)
	if reduced >= full {
		t.Fatalf("skipping must reduce cost: %d → %d", full, reduced)
	}
	y := s.Forward(nn.Eval(1), d.TestBatches(4)[0].X)
	if y.Dim(1) != 10 || !y.AllFinite() {
		t.Fatalf("skip-forward output %v", y.Shape)
	}
}

// TestSkipNetLiteGatesRunFused: every gated block runs nn.Fuse of its
// residual block, so its Conv→GroupNorm→ReLU chains train and serve as
// FusedConvActs. The inference pass still equals the unfused network's
// eval-mode Forward bit for bit, and a skipped block is the identity on both
// paths.
func TestSkipNetLiteGatesRunFused(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, _ := models.NewResNet(models.ResNetMini(1, models.NormGroup, 1), rng)
	s := NewSkipNetLite(m, 0.2)
	for i, g := range s.gates {
		fused := 0
		for _, l := range g.fused.Body.(*nn.Sequential).Layers {
			if _, ok := l.(*nn.FusedConvAct); ok {
				fused++
			}
		}
		if fused == 0 {
			t.Fatalf("gate %d runs no FusedConvAct", i)
		}
	}
	x := tinyImages().TestBatches(4)[0].X
	same := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: Infer[%d] = %v, eval Forward %v", what, i, got.Data[i], v)
			}
		}
	}
	same("no skips", s.Infer(nn.Eval(1), x), m.Forward(nn.Eval(1), x))
	s.gates[0].Skip = true
	same("gate 0 skipped", s.Infer(nn.Eval(1), x), s.Forward(nn.Eval(1), x))
}

// TestSkipNetLiteFusesWholeNetwork: Net is nn.Fuse of the whole gated
// network, so the Conv→GroupNorm→ReLU chains outside the gates (the stem)
// train as FusedConvActs too — as many as nn.Fuse of the base model holds —
// while CurrentCost still measures the unfused layers.
func TestSkipNetLiteFusesWholeNetwork(t *testing.T) {
	m, _ := models.NewResNet(models.ResNetMini(1, models.NormGroup, 1), rand.New(rand.NewSource(15)))
	want := countFusedConvs(nn.Fuse(m))
	s := NewSkipNetLite(m, 0.2)
	if got := countFusedConvs(s.Net); got != want || want == 0 {
		t.Fatalf("SkipNet-lite runs %d FusedConvActs, nn.Fuse of its base model %d", got, want)
	}
	in := []int{3, 8, 8}
	if p, _ := cost.Measure(m, in, 1); s.CurrentCost(in) != p.MACs {
		t.Fatalf("CurrentCost %d MACs, base model %d", s.CurrentCost(in), p.MACs)
	}
}

// countFusedConvs counts the FusedConvActs in l, inside containers and
// SkipNet-lite gates too.
func countFusedConvs(l nn.Layer) int {
	switch v := l.(type) {
	case *nn.FusedConvAct:
		return 1
	case *nn.Sequential:
		n := 0
		for _, c := range v.Layers {
			n += countFusedConvs(c)
		}
		return n
	case *nn.Residual:
		n := countFusedConvs(v.Body)
		if v.Short != nil {
			n += countFusedConvs(v.Short)
		}
		return n
	case *GatedResidual:
		return countFusedConvs(v.fused)
	}
	return 0
}

func TestSkipNetStochasticDepthDuringTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := models.ResNetMini(4, models.NormGroup, 1)
	m, _ := models.NewResNet(cfg, rng)
	s := NewSkipNetLite(m, 0.5)
	d := tinyImages()
	b := d.TrainBatches(8, false, rng)[0]
	drops := 0
	for i := 0; i < 50; i++ {
		ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
		s.Forward(ctx, b.X)
		for _, g := range s.gates {
			if g.dropped {
				drops++
			}
		}
	}
	// 3 gates × 50 passes × p=0.5 ≈ 75 expected drops.
	if drops < 40 || drops > 110 {
		t.Fatalf("stochastic depth dropped %d times, want ≈75", drops)
	}
}

// TestTrainFixedLearns trains a fixed-width model the way the experiments
// train their baselines: the slicing Trainer at the one rate 1.
func TestTrainFixedLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := tinyImages()
	m, _, _ := tinyVGG(models.NormGroup, rng)
	opt := train.NewSGD(0.05, 0.9, 1e-4)
	sched := train.NewStepDecay(0.05, 10, 12, 18)
	tr := slicing.NewTrainer(m, slicing.RateList{1}, slicing.Fixed{Rate: 1}, opt, rng)
	for e := 0; e < 22; e++ {
		opt.LR = sched.LR(e)
		tr.Epoch(d.TrainBatches(16, false, rng))
	}
	res := train.Evaluate(m, 1, 0, d.TestBatches(16))
	if res.Accuracy < 0.5 {
		t.Fatalf("fixed training reached only %.3f accuracy", res.Accuracy)
	}
}

// TestSkipNetLiteTrainerMatchesPlainLoop holds SkipNet-lite trained through
// the Trainer at rate 1 to the plain Forward → SoftmaxCrossEntropy →
// Backward → SGD loop on the same seeds, bit for bit in every loss and
// parameter: the Trainer must consume the RNG exactly as the loop does, so
// every stochastic-depth gate drops the same blocks on both sides.
func TestSkipNetLiteTrainerMatchesPlainLoop(t *testing.T) {
	build := func() *SkipNetLite {
		m, _ := models.NewResNet(models.ResNetMini(1, models.NormGroup, 1), rand.New(rand.NewSource(11)))
		return NewSkipNetLite(m, 0.5)
	}
	a, h := build(), build()
	rngA, rngH := rand.New(rand.NewSource(12)), rand.New(rand.NewSource(12))
	tr := slicing.NewTrainer(a, slicing.RateList{1}, slicing.Fixed{Rate: 1}, train.NewSGD(0.05, 0.9, 1e-4), rngA)
	opt := train.NewSGD(0.05, 0.9, 1e-4)
	batches := tinyImages().TrainBatches(16, false, rand.New(rand.NewSource(13)))
	pa, ph := a.Params(), h.Params()
	drops := 0
	for step, b := range batches {
		got := tr.Step(b).Losses
		ctx := &nn.Context{Training: true, Rate: 1, RNG: rngH}
		want, dy := nn.SoftmaxCrossEntropy(nil, h.Forward(ctx, b.X), b.Labels)
		h.Backward(ctx, dy)
		opt.Step(h.Params())
		for i, g := range h.gates {
			if g.dropped != a.gates[i].dropped {
				t.Fatalf("step %d gate %d dropped %v, plain loop %v", step, i, a.gates[i].dropped, g.dropped)
			}
			if g.dropped {
				drops++
			}
		}
		if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Fatalf("step %d losses %v, plain loop %v", step, got, want)
		}
		for i := range pa {
			for j := range pa[i].Value.Data {
				if math.Float64bits(pa[i].Value.Data[j]) != math.Float64bits(ph[i].Value.Data[j]) {
					t.Fatalf("step %d %s[%d] = %v, plain loop %v", step, pa[i].Name, j, pa[i].Value.Data[j], ph[i].Value.Data[j])
				}
			}
		}
	}
	// At p=0.5 over every gate and step, both routes must be exercised.
	if n := len(a.gates) * len(batches); drops == 0 || drops == n {
		t.Fatalf("%d of %d gate draws dropped their block, want some of each", drops, n)
	}
}
