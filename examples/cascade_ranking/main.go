// Cascade ranking (Section 4.2): a retrieval pipeline whose stages are the
// sub-models sliced from ONE slicing-trained network, compared with the
// conventional cascade of independently trained models. The slicing cascade
// deploys a single model's parameters instead of one per stage, and its
// stages make far more consistent predictions because they share the base
// representation (quantified in the Figure 8 experiment) — the property
// that gives the paper its aggregate-recall win. At this example's mini
// scale the per-stage precision of the sliced subnets has not fully
// converged, so the recall comparison
// favours whichever cascade has the stronger stage-1 precision; the cost
// and consistency mechanics are what this program demonstrates.
package main

import (
	"fmt"
	"math/rand"

	ms "modelslicing"
	"modelslicing/internal/cascade"
	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	// Item corpus: a small image-classification task; "retrieval" keeps an
	// item only while every cascade stage classifies it consistently.
	cfg := data.CIFARLike(320, 240)
	cfg.H, cfg.W = 12, 12
	cfg.Noise, cfg.SharedWeight = 0.3, 0.25
	d := data.GenerateImages(cfg)
	items := d.TestBatches(64)
	inShape := []int{cfg.Channels, cfg.H, cfg.W}
	rates := ms.NewRateList(0.25, 4)
	// The cascade deploys the three widths from 0.5 up (the paper's cascade
	// also starts above the weakest width); 60 epochs lets the mini-scale
	// slicing training converge.
	stageRates := []float64(rates[1:])
	epochs := 60

	fmt.Println("training the slicing model (one network, four stages)...")
	sliced, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, len(rates)), rng)
	opt := ms.NewSGD(0.03, 0.9, 1e-4)
	lrs := train.NewStepDecay(0.03, 10, train.MilestonesAt(epochs, 0.6, 0.85)...)
	tr := ms.NewTrainer(sliced, rates, ms.NewRandomWeighted(rates, []float64{0.25, 0.125, 0.125, 0.5}, 3), opt, rng)
	for e := 0; e < epochs; e++ {
		opt.LR = lrs.LR(e)
		tr.Epoch(d.TrainBatches(32, false, rng))
	}

	fmt.Println("training the conventional cascade (one model per stage)...")
	var names []string
	var widths []float64
	var fixed []nn.Layer
	var params, macs []int64
	for _, r := range stageRates {
		num := int(r * 4)
		fcfg := models.VGG13Mini(1, models.NormGroup, 1).ScaleWidths(num, 4)
		m, _ := models.NewVGG(fcfg, rng)
		fopt := ms.NewSGD(0.03, 0.9, 1e-4)
		ftr := ms.NewTrainer(m, slicing.RateList{1}, ms.FixedSchedule(1), fopt, rng)
		for e := 0; e < epochs; e++ {
			fopt.LR = lrs.LR(e)
			ftr.Epoch(d.TrainBatches(32, false, rng))
		}
		p := ms.MeasureCost(m, inShape, 1)
		names = append(names, fmt.Sprintf("fixed-%.2f", r))
		widths = append(widths, r)
		fixed = append(fixed, m)
		params = append(params, p.Params)
		macs = append(macs, p.MACs)
	}

	slicedStages := cascade.FromSlicedModel(sliced, rates, stageRates,
		func(r float64) int64 { return ms.MeasureCost(sliced, inShape, r).Params },
		func(r float64) int64 { return ms.MeasureCost(sliced, inShape, r).MACs })
	slicedRes := cascade.Run(slicedStages, items, true)
	fixedRes := cascade.Run(cascade.FromModels(names, widths, fixed, params, macs), items, false)

	fmt.Printf("\n%-16s %8s %10s %10s %12s %12s\n",
		"solution", "stage", "params", "MACs", "precision", "agg recall")
	report := func(label string, res cascade.Result) {
		for i, st := range res.Stages {
			fmt.Printf("%-16s %8d %10d %10d %11.2f%% %11.2f%%\n",
				label, i+1, st.Params, st.MACs, 100*st.Precision, 100*st.AggRecall)
		}
	}
	report("model-slicing", slicedRes)
	report("cascade-model", fixedRes)
	fmt.Printf("\nfinal recall: slicing %.2f%% vs cascade %.2f%%\n",
		100*slicedRes.FinalRecall(), 100*fixedRes.FinalRecall())
	fmt.Printf("deployed parameters: slicing %d (one model) vs cascade %d (sum of stages)\n",
		slicedRes.TotalParams, fixedRes.TotalParams)
}
