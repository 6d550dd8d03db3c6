package experiments

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/baselines"
	"modelslicing/internal/cost"
	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// Fig2 reproduces the ResNet trade-off figure: accuracy vs inference FLOPs
// for model slicing (standard and widened ResNet), the varying-width and
// varying-depth ensembles, the multi-classifier (depth slicing) baseline,
// Network-Slimming width compression, and SkipNet-style dynamic routing.
func Fig2(scale Scale, seed int64) *TradeoffResult {
	sz := cnnSizingFor(scale)
	d, inShape := sz.dataset()
	test := d.TestBatches(64)
	rates := slicing.NewRateList(sz.LB, sz.Granularity)

	out := &TradeoffResult{Title: fmt.Sprintf("Figure 2 — ResNet accuracy vs FLOPs (%v scale)", scale)}

	// --- Model slicing on the ResNet-164 analogue.
	rng := rand.New(rand.NewSource(seed))
	narrowCfg := models.ResNetMini(sz.Granularity, models.NormGroup, len(rates))
	narrow, _ := models.NewResNet(narrowCfg, rng)
	trainCNN(narrow, rates, slicing.NewRandomWeighted(rates, PaperWeights(rates), 3), d, sz, rng, nil)
	out.Curves = append(out.Curves, sliceCurve("ResNet with Model Slicing (single model L164-mini)",
		narrow, rates, inShape, test))

	// --- Model slicing on the widened ResNet-56-2 analogue.
	wideCfg := models.ResNetMiniWide(sz.Granularity, models.NormGroup, len(rates))
	wide, _ := models.NewResNet(wideCfg, rng)
	trainCNN(wide, rates, slicing.NewRandomWeighted(rates, PaperWeights(rates), 3), d, sz, rng, nil)
	out.Curves = append(out.Curves, sliceCurve("ResNet with Model Slicing (single model L56-2-mini)",
		wide, rates, inShape, test))

	// --- Ensemble of ResNet (varying width).
	var widthCurve Curve
	widthCurve.Name = "Ensemble of ResNet (varying width)"
	for _, r := range rates {
		num, den := rateFrac(r, sz.Granularity)
		cfg := models.ResNetMini(1, models.NormGroup, 1).ScaleWidths(num, den)
		m, _ := models.NewResNet(cfg, rng)
		trainFixedCNN(m, d, sz, rng)
		macs, _ := measureFull(m, inShape)
		widthCurve.Points = append(widthCurve.Points, Point{fmt.Sprintf("w=%.4g", r), macs,
			train.Evaluate(m, 1, 0, test).Accuracy})
	}
	out.Curves = append(out.Curves, widthCurve)

	// --- Ensemble of ResNet (varying depth).
	var depthCurve Curve
	depthCurve.Name = "Ensemble of ResNet (varying depth)"
	for _, blocks := range [][]int{{1, 1, 1}, {2, 2, 2}} {
		cfg := models.ResNetMini(1, models.NormGroup, 1)
		cfg.StageBlocks = blocks
		m, _ := models.NewResNet(cfg, rng)
		trainFixedCNN(m, d, sz, rng)
		macs, _ := measureFull(m, inShape)
		depthCurve.Points = append(depthCurve.Points, Point{fmt.Sprintf("blocks=%d", blocks[0]), macs,
			train.Evaluate(m, 1, 0, test).Accuracy})
	}
	out.Curves = append(out.Curves, depthCurve)

	// --- Multi-classifier (depth-sliced early exits on one model).
	mcCfg := models.ResNetMini(1, models.NormGroup, 1)
	backbone, taps := models.NewResNet(mcCfg, rng)
	tapChannels := make([]int, len(taps))
	for i, w := range mcCfg.StageWidths {
		tapChannels[i] = w * mcCfg.Expansion
	}
	mc := baselines.NewMultiClassifierCNN(backbone, taps, tapChannels, mcCfg.Classes, rng)
	// Not a Trainer: TrainStep runs one joint backward through the backbone.
	opt := train.NewSGD(sz.LR, 0.9, 1e-4)
	lrs := sz.lrSchedule()
	for epoch := 0; epoch < sz.Epochs; epoch++ {
		opt.LR = lrs.LR(epoch)
		for _, b := range d.TrainBatches(sz.Batch, sz.Augment, rng) {
			ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
			mc.TrainStep(ctx, b, opt)
		}
	}
	var mcCurve Curve
	mcCurve.Name = "ResNet with Multi-Classifiers (single model)"
	for k := 0; k < mc.NumExits(); k++ {
		mcCurve.Points = append(mcCurve.Points, Point{fmt.Sprintf("exit-%d", k+1),
			mc.ExitCost(k, inShape),
			train.Evaluate(mc.ExitModel(k), 1, 0, test).Accuracy})
	}
	out.Curves = append(out.Curves, mcCurve)

	// --- Network Slimming (width compression): L1-γ training, prune the
	// bottleneck mid-channels, fine-tune.
	slimCfg := models.ResNetMini(1, models.NormBatch, 1)
	slimSrc, _ := models.NewResNet(slimCfg, rng)
	trainSlimCNN(slimSrc, d, sz, 1e-4, rng)
	var slimCurve Curve
	slimCurve.Name = "ResNet with Width Compression (Network Slimming)"
	for _, keep := range []float64{0.75, 0.5} {
		pruned := baselines.PruneResNet(slimSrc, keep, rng)
		fineTune(pruned, d, sz, rng)
		macs, _ := measureFull(pruned, inShape)
		slimCurve.Points = append(slimCurve.Points, Point{fmt.Sprintf("keep=%.2f", keep), macs,
			train.Evaluate(pruned, 1, 0, test).Accuracy})
	}
	out.Curves = append(out.Curves, slimCurve)

	// --- SkipNet-style dynamic routing.
	skipBase, _ := models.NewResNet(models.ResNetMini(1, models.NormGroup, 1), rng)
	skip := baselines.NewSkipNetLite(skipBase, 0.2)
	trainFixedCNN(skip, d, sz, rng)
	skip.MeasureContributions(test)
	var skipCurve Curve
	skipCurve.Name = "ResNet with Dynamic Routing (SkipNet-lite)"
	for k := 0; k <= skip.NumSkippable(); k++ {
		skip.SkipLowest(k)
		skipCurve.Points = append(skipCurve.Points, Point{fmt.Sprintf("skip-%d", k),
			skip.CurrentCost(inShape),
			train.Evaluate(skip, 1, 0, test).Accuracy})
	}
	skip.SkipLowest(0)
	out.Curves = append(out.Curves, skipCurve)
	return out
}

func sliceCurve(name string, model nn.Layer, rates slicing.RateList, inShape []int,
	test []train.Batch) Curve {
	c := Curve{Name: name}
	for _, r := range rates {
		p := point(model, rates, r, inShape, test)
		c.Points = append(c.Points, p)
	}
	return c
}

func point(model nn.Layer, rates slicing.RateList, r float64, inShape []int,
	test []train.Batch) Point {
	macs := costAt(model, inShape, r)
	return Point{fmt.Sprintf("r=%.4g", r), macs,
		train.Evaluate(model, r, rates.WidthIdx(r), test).Accuracy}
}

// trainSlimCNN trains with the network-slimming L1 penalty on γ. It keeps
// its own loop because the penalty lands between Backward and the update.
func trainSlimCNN(model nn.Layer, d *data.Images, sz cnnSizing, lambda float64, rng *rand.Rand) {
	opt := train.NewSGD(sz.LR, 0.9, 1e-4)
	lrs := sz.lrSchedule()
	for epoch := 0; epoch < sz.Epochs; epoch++ {
		opt.LR = lrs.LR(epoch)
		for _, b := range d.TrainBatches(sz.Batch, sz.Augment, rng) {
			ctx := &nn.Context{Training: true, Rate: 1, RNG: rng}
			logits := model.Forward(ctx, b.X)
			_, dy := nn.SoftmaxCrossEntropy(nil, logits, b.Labels)
			model.Backward(ctx, dy)
			baselines.L1GammaPenalty(model, lambda)
			opt.Step(model.Params())
		}
	}
}

// fineTune runs a short recovery phase after pruning (⅓ of the epochs at a
// tenth of the learning rate, the usual slimming recipe).
func fineTune(model nn.Layer, d *data.Images, sz cnnSizing, rng *rand.Rand) {
	tr := slicing.NewTrainer(model, slicing.RateList{1}, slicing.Fixed{Rate: 1}, train.NewSGD(sz.LR/10, 0.9, 1e-4), rng)
	for epoch := 0; epoch < sz.Epochs/3+1; epoch++ {
		tr.Epoch(d.TrainBatches(sz.Batch, sz.Augment, rng))
	}
}

func costAt(model nn.Layer, inShape []int, r float64) int64 {
	p, _ := cost.Measure(model, inShape, r)
	return p.MACs
}
