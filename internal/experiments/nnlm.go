package experiments

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/cost"
	"modelslicing/internal/data"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// NNLMResult bundles the Figure 4 curves and Table 2 rows.
type NNLMResult struct {
	Rates      []float64 // descending from 1.0, like the paper's Table 2
	Ct         []float64 // remaining computation fraction per rate
	SlicedPPL  []float64 // NNLM-lb (model slicing)
	DirectPPL  []float64 // NNLM-1.0 (direct slicing)
	FixedPPL   []float64 // NNLM-fixed (per-width models)
	LB         float64
	BigramPPL  float64 // corpus bigram entropy floor (context for absolute values)
	UniformPPL float64
}

// Render formats Table 2 / Figure 4.
func (r *NNLMResult) Render() string {
	tab := &Table{
		Title:  "Table 2 / Figure 4 — NNLM perplexity per slice rate",
		Header: []string{"row"},
	}
	for _, rate := range r.Rates {
		tab.Header = append(tab.Header, fmt.Sprintf("r=%.4g", rate))
	}
	rowOf := func(name string, vals []float64) {
		row := []string{name}
		for _, v := range vals {
			row = append(row, f2(v))
		}
		tab.Rows = append(tab.Rows, row)
	}
	ct := []string{"Ct %"}
	for _, v := range r.Ct {
		ct = append(ct, f2(100*v))
	}
	tab.Rows = append(tab.Rows, ct)
	rowOf("NNLM-1.0 (direct slicing)", r.DirectPPL)
	rowOf(fmt.Sprintf("NNLM-%.3g (model slicing)", r.LB), r.SlicedPPL)
	rowOf("NNLM-fixed (per-width models)", r.FixedPPL)
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("corpus reference: uniform PPL %.1f, bigram-floor PPL %.1f", r.UniformPPL, r.BigramPPL),
		"paper (PTB): NNLM-1.0 81.58→298.8, NNLM-0.375 80.89→112.1, fixed 81.58→96.69 as r goes 1.0→0.25",
		"shape: direct slicing blows up, slicing degrades gently and beats fixed at full width")
	return tab.Render()
}

// Fig4Table2 reproduces the language-modeling experiment: the NNLM trained
// with model slicing versus direct slicing of a conventionally trained model
// versus an ensemble of per-width models, on the synthetic Markov corpus.
func Fig4Table2(scale Scale, seed int64) *NNLMResult {
	sz := nnlmSizingFor(scale)
	txt := data.GenerateText(data.PTBLike(sz.TrainLen, sz.TestLen))
	trainB := data.LMBatches(txt.Train, sz.SeqLen, sz.Batch)
	testB := data.LMBatches(txt.Test, sz.SeqLen, sz.Batch)
	rates := slicing.NewRateList(sz.LB, sz.Granularity)

	// Evaluation rates descend from 1.0 and probe one step below lb.
	evalAsc := append([]float64(nil), rates...)
	if sz.LB > 1.0/float64(sz.Granularity) {
		evalAsc = append([]float64{sz.LB - 1.0/float64(sz.Granularity)}, evalAsc...)
	}
	out := &NNLMResult{LB: sz.LB}
	for i := len(evalAsc) - 1; i >= 0; i-- {
		out.Rates = append(out.Rates, evalAsc[i])
	}

	cfg := models.NNLMMini(txt.Cfg.Vocab, sz.Granularity)
	inShape := []int{sz.SeqLen}

	// --- Model slicing arm (R-min-max, the paper's larger-dataset pick).
	rng := rand.New(rand.NewSource(seed))
	slicedModel := models.NewNNLM(cfg, rng)
	trainNNLM(slicedModel, rates, slicing.NewRMinMax(rates), trainB, testB, sz, rng)

	// --- Direct slicing control.
	directModel := models.NewNNLM(cfg, rng)
	trainNNLM(directModel, rates, slicing.Fixed{Rate: 1.0}, trainB, testB, sz, rng)

	// --- Fixed per-width models.
	fixed := map[float64]*nn.Sequential{}
	for _, r := range evalAsc {
		num, den := rateFrac(r, sz.Granularity)
		fcfg := cfg.ScaleWidths(num, den)
		fcfg.Groups = 1
		m := models.NewNNLM(fcfg, rng)
		oneRate := slicing.RateList{1.0}
		trainNNLM(m, oneRate, slicing.Fixed{Rate: 1.0}, trainB, testB, sz, rng)
		fixed[r] = m
	}

	fullC := cost.FLOPs(slicedModel, inShape, 1)
	for _, r := range out.Rates {
		out.Ct = append(out.Ct, cost.FLOPs(slicedModel, inShape, r)/fullC)
		out.SlicedPPL = append(out.SlicedPPL,
			train.Evaluate(slicedModel, r, rates.WidthIdx(r), testB).Perplexity())
		out.DirectPPL = append(out.DirectPPL,
			train.Evaluate(directModel, r, rates.WidthIdx(r), testB).Perplexity())
		out.FixedPPL = append(out.FixedPPL,
			train.Evaluate(fixed[r], 1, 0, testB).Perplexity())
	}
	out.BigramPPL = train.Perplexity(txt.EntropyFloorEstimate())
	out.UniformPPL = float64(txt.Cfg.Vocab)
	return out
}

// trainNNLM runs the NNLM recipe: SGD without momentum, gradient clipping,
// and the paper's adaptive decay (quarter the rate when validation
// perplexity stalls).
func trainNNLM(model *nn.Sequential, rates slicing.RateList, sched slicing.Scheduler,
	trainB, valB []train.Batch, sz nnlmSizing, rng *rand.Rand) {
	opt := train.NewSGD(sz.LR, 0, 0)
	decay := train.NewAdaptiveDecay(sz.LR, 4)
	tr := slicing.NewTrainer(model, rates, sched, opt, rng)
	tr.ClipNorm = 5
	for epoch := 0; epoch < sz.Epochs; epoch++ {
		opt.LR = decay.LR(epoch)
		tr.Epoch(trainB)
		val := train.Evaluate(model, 1, len(rates)-1, valB)
		decay.Observe(val.Loss)
	}
}
