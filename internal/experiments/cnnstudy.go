package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"modelslicing/internal/cost"
	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// CNNStudy holds every artifact of the shared VGG-13 study on the
// CIFAR-like task: the model-slicing network, the direct-slicing control
// (lb = 1.0), the fixed-width ensemble, the depth ensemble, learning-curve
// history, and γ-evolution traces. Figures 5–8 and Tables 4–5 all derive
// from one study so arms are trained once per (scale, seed).
type CNNStudy struct {
	Scale   Scale
	Sizing  cnnSizing
	Data    *data.Images
	InShape []int

	// Rates is the training rate list (lb … 1); EvalRates additionally
	// includes the below-lower-bound probe rate (Table 4's collapse row).
	Rates     slicing.RateList
	EvalRates []float64

	Sliced *nn.Sequential             // trained with model slicing
	Direct *nn.Sequential             // trained conventionally (lb = 1.0)
	Fixed  map[float64]*nn.Sequential // independently trained fixed widths

	DepthNames   []string
	DepthModels  []*nn.Sequential
	DepthInShape []int

	History       *train.History // per-epoch eval of Sliced at EvalRates
	DirectHistory *train.History // per-epoch eval of Direct at full width
	// GammaTrace maps a layer label to per-epoch γ group means (Figure 6).
	GammaTrace map[string][][]float64
}

var (
	studyMu    sync.Mutex
	studyCache = map[string]*CNNStudy{}
)

// RunCNNStudy trains (or returns the cached) shared study for the scale.
func RunCNNStudy(scale Scale, seed int64) *CNNStudy {
	key := fmt.Sprintf("%v-%d", scale, seed)
	studyMu.Lock()
	defer studyMu.Unlock()
	if s, ok := studyCache[key]; ok {
		return s
	}
	s := runCNNStudy(scale, seed)
	studyCache[key] = s
	return s
}

// rateFrac expresses rate r at the given granularity as an integer fraction.
func rateFrac(r float64, granularity int) (int, int) {
	return int(r*float64(granularity) + 0.5), granularity
}

func runCNNStudy(scale Scale, seed int64) *CNNStudy {
	sz := cnnSizingFor(scale)
	s := &CNNStudy{
		Scale:  scale,
		Sizing: sz,
		Rates:  slicing.NewRateList(sz.LB, sz.Granularity),
	}
	s.Data, s.InShape = sz.dataset()

	// Evaluation probes one step below the lower bound (collapse row).
	if sz.LB > 1.0/float64(sz.Granularity) {
		below := sz.LB - 1.0/float64(sz.Granularity)
		s.EvalRates = append(s.EvalRates, below)
	}
	s.EvalRates = append(s.EvalRates, s.Rates...)

	rng := rand.New(rand.NewSource(seed))
	test := s.Data.TestBatches(64)
	// Per-epoch history (Figure 7) evaluates on a fixed subset to keep the
	// epoch loop cheap; the final tables use the full test set.
	hist := test
	if len(hist) > 2 {
		hist = hist[:2]
	}

	// --- Model slicing arm (R-weighted-3, the paper's small-dataset pick).
	slicedCfg := models.VGG13Mini(sz.Granularity, models.NormGroup, len(s.Rates))
	s.Sliced, _ = models.NewVGG(slicedCfg, rng)
	sched := slicing.NewRandomWeighted(s.Rates, PaperWeights(s.Rates), 3)
	s.History, s.GammaTrace = trainSlicedCNN(s.Sliced, s.Rates, s.EvalRates, sched, s.Data, sz, hist, rng)

	// --- Direct slicing control: same architecture, lb = 1.0 training.
	s.Direct, _ = models.NewVGG(slicedCfg, rng)
	s.DirectHistory, _ = trainSlicedCNN(s.Direct, s.Rates, []float64{1.0},
		slicing.Fixed{Rate: 1.0}, s.Data, sz, hist, rng)

	// --- Fixed-width ensemble: one conventional model per eval rate.
	s.Fixed = make(map[float64]*nn.Sequential)
	for _, r := range s.EvalRates {
		num, den := rateFrac(r, sz.Granularity)
		cfg := models.VGG13Mini(1, models.NormGroup, 1).ScaleWidths(num, den)
		m, _ := models.NewVGG(cfg, rng)
		trainFixedCNN(m, s.Data, sz, rng)
		s.Fixed[r] = m
	}

	// --- Depth ensemble: same widths, fewer blocks/stages.
	depths := []struct {
		name   string
		blocks []int
		widths []int
		pool   []bool
	}{
		{"depth-3/4", []int{1, 1, 1, 1}, slicedCfg.StageWidths, slicedCfg.PoolAfter},
		{"depth-1/2", []int{1, 1, 1}, slicedCfg.StageWidths[:3], []bool{false, true, true}},
		{"depth-1/4", []int{1, 1}, slicedCfg.StageWidths[:2], []bool{false, true}},
	}
	for _, d := range depths {
		cfg := models.VGGConfig{
			Name: d.name, InChannels: 3, InputHW: sz.HW,
			StageWidths: d.widths, StageBlocks: d.blocks, PoolAfter: d.pool,
			Classes: s.Data.Cfg.Classes, Groups: 1, Norm: models.NormGroup, NumWidths: 1,
		}
		m, _ := models.NewVGG(cfg, rng)
		trainFixedCNN(m, s.Data, sz, rng)
		s.DepthNames = append(s.DepthNames, d.name)
		s.DepthModels = append(s.DepthModels, m)
	}
	return s
}

// trainSlicedCNN runs the Algorithm-1 loop with per-epoch evaluation and
// γ-trace recording; it is also used for the lb=1.0 control via Fixed{1.0}.
func trainSlicedCNN(model *nn.Sequential, rates slicing.RateList, evalRates []float64,
	sched slicing.Scheduler, d *data.Images, sz cnnSizing, test []train.Batch,
	rng *rand.Rand) (*train.History, map[string][][]float64) {

	hist := train.NewHistory(evalRates)
	early, late, labels := gammaTaps(model)
	trace := map[string][][]float64{}
	trainCNN(model, rates, sched, d, sz, rng, func(epoch int, loss float64) {
		rec := train.EpochRecord{Epoch: epoch, TrainLoss: loss}
		for _, r := range evalRates {
			rec.PerRate = append(rec.PerRate, train.Evaluate(model, r, rates.WidthIdx(r), test))
		}
		if early != nil {
			trace[labels[0]] = append(trace[labels[0]], early.GammaGroupMeans())
			trace[labels[1]] = append(trace[labels[1]], late.GammaGroupMeans())
		}
		hist.Append(rec)
	})
	return hist, trace
}

// gammaTaps returns an early and a late GroupNorm layer (the conv3/conv5
// analogues of Figure 6).
func gammaTaps(model *nn.Sequential) (early, late *nn.GroupNorm, labels [2]string) {
	var gns []*nn.GroupNorm
	for _, l := range model.Layers {
		if g, ok := l.(*nn.GroupNorm); ok {
			gns = append(gns, g)
		}
	}
	if len(gns) < 2 {
		return nil, nil, labels
	}
	early = gns[len(gns)/2]
	late = gns[len(gns)-1]
	labels = [2]string{"conv-mid", "conv-last"}
	return early, late, labels
}

// trainCNN is the one CNN training recipe: SGD with momentum 0.9 and weight
// decay 1e-4 under sz.lrSchedule(), one Trainer epoch over freshly drawn
// batches per epoch. after, when non-nil, sees each epoch's mean loss.
func trainCNN(model nn.Layer, rates slicing.RateList, sched slicing.Scheduler,
	d *data.Images, sz cnnSizing, rng *rand.Rand, after func(epoch int, loss float64)) {
	opt := train.NewSGD(sz.LR, 0.9, 1e-4)
	lrs := sz.lrSchedule()
	tr := slicing.NewTrainer(model, rates, sched, opt, rng)
	for epoch := 0; epoch < sz.Epochs; epoch++ {
		opt.LR = lrs.LR(epoch)
		loss := tr.Epoch(d.TrainBatches(sz.Batch, sz.Augment, rng))
		if after != nil {
			after(epoch, loss)
		}
	}
}

// trainFixedCNN trains a conventional fixed-width model with the shared
// recipe: the Trainer at the one rate 1.
func trainFixedCNN(model nn.Layer, d *data.Images, sz cnnSizing, rng *rand.Rand) {
	trainCNN(model, slicing.RateList{1}, slicing.Fixed{Rate: 1}, d, sz, rng, nil)
}

// SlicedCost returns (MACs, params) of the sliced model at rate r.
func (s *CNNStudy) SlicedCost(r float64) (int64, int64) {
	p, _ := cost.Measure(s.Sliced, s.InShape, r)
	return p.MACs, p.Params
}

// FixedCost returns (MACs, params) of the fixed-width model at width r.
func (s *CNNStudy) FixedCost(r float64) (int64, int64) {
	p, _ := cost.Measure(s.Fixed[r], s.InShape, 1)
	return p.MACs, p.Params
}
