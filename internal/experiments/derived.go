package experiments

import (
	"fmt"
	"maps"
	"slices"

	"modelslicing/internal/cascade"
	"modelslicing/internal/cost"
	"modelslicing/internal/nn"
	"modelslicing/internal/train"
)

func measureFull(m nn.Layer, inShape []int) (macs, params int64) {
	p, _ := cost.Measure(m, inShape, 1)
	return p.MACs, p.Params
}

// Table5 reproduces the cascade-ranking simulation: per-stage precision and
// aggregate recall for a cascade of independently trained fixed-width models
// versus the sub-models sliced from one model-slicing network, plus the
// deployment cost comparison.
func Table5(scale Scale, seed int64) *Table {
	s := RunCNNStudy(scale, seed)
	items := s.Data.TestBatches(64)

	stageRates := append([]float64(nil), s.Rates...)
	var names []string
	var widths []float64
	var fixedModels []nn.Layer
	var params, macs []int64
	for _, r := range stageRates {
		names = append(names, fmt.Sprintf("fixed-%.4g", r))
		widths = append(widths, r)
		fixedModels = append(fixedModels, s.Fixed[r])
		m, p := s.FixedCost(r)
		macs = append(macs, m)
		params = append(params, p)
	}
	fixedRes := cascade.Run(cascade.FromModels(names, widths, fixedModels, params, macs), items, false)

	slicedStages := cascade.FromSlicedModel(s.Sliced, s.Rates, stageRates,
		func(r float64) int64 { _, p := s.SlicedCost(r); return p },
		func(r float64) int64 { m, _ := s.SlicedCost(r); return m })
	slicedRes := cascade.Run(slicedStages, items, true)

	tab := &Table{
		Title:  fmt.Sprintf("Table 5 — cascade ranking simulation (%v scale)", scale),
		Header: []string{"solution", "stage", "width", "params", "MACs", "precision", "agg recall"},
	}
	addRows := func(label string, res cascade.Result) {
		for i, st := range res.Stages {
			tab.Rows = append(tab.Rows, []string{
				label, fmt.Sprintf("%d", i+1), fmt.Sprintf("%.4g", st.Width),
				fmt.Sprintf("%d", st.Params), fmt.Sprintf("%d", st.MACs),
				pct(st.Precision), pct(st.AggRecall),
			})
		}
		tab.Rows = append(tab.Rows, []string{
			label, "TOTAL", "-", fmt.Sprintf("%d", res.TotalParams),
			fmt.Sprintf("%d", res.TotalMACs), "-", pct(res.FinalRecall()),
		})
	}
	addRows("cascade-model", fixedRes)
	addRows("model-slicing", slicedRes)
	tab.Notes = append(tab.Notes,
		"paper: slicing cascade retrieves 88.67% vs 86.03% for the conventional cascade, with 9.42M vs 29.3M params",
		fmt.Sprintf("measured final recall: slicing %s vs cascade %s; params %d vs %d",
			pct(slicedRes.FinalRecall()), pct(fixedRes.FinalRecall()),
			slicedRes.TotalParams, fixedRes.TotalParams))
	return tab
}

// Fig6 reproduces the γ-evolution heat map: per-epoch mean |γ| per channel
// group for an early and a late normalization layer of the slicing-trained
// VGG. The paper's stratified pattern has early groups (the base network)
// carrying the largest scales.
func Fig6(scale Scale, seed int64) *Table {
	s := RunCNNStudy(scale, seed)
	tab := &Table{
		Title:  fmt.Sprintf("Figure 6 — γ group means over training (%v scale)", scale),
		Header: []string{"layer", "epoch"},
	}
	var anyTrace [][]float64
	for _, tr := range s.GammaTrace {
		anyTrace = tr
		break
	}
	if len(anyTrace) == 0 {
		tab.Notes = append(tab.Notes, "no γ trace recorded")
		return tab
	}
	for g := range anyTrace[0] {
		tab.Header = append(tab.Header, fmt.Sprintf("G%d", g+1))
	}
	// Sorted, so the rows and notes come out in one order on every run.
	layers := slices.Sorted(maps.Keys(s.GammaTrace))
	for _, layer := range layers {
		trace := s.GammaTrace[layer]
		for e, groups := range trace {
			row := []string{layer, fmt.Sprintf("%d", e)}
			for _, v := range groups {
				row = append(row, f3(v))
			}
			tab.Rows = append(tab.Rows, row)
		}
	}
	// Quantify the stratification claim on the final epoch.
	for _, layer := range layers {
		trace := s.GammaTrace[layer]
		last := trace[len(trace)-1]
		base := last[0]
		tail := last[len(last)-1]
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"%s final epoch: base group γ=%.3f vs last group γ=%.3f (paper: base groups largest)",
			layer, base, tail))
	}
	return tab
}

// Fig7 reproduces the learning curves: per-epoch test error rate and loss
// of every evaluated subnet of the slicing-trained model, next to the
// conventionally trained full fixed model.
func Fig7(scale Scale, seed int64) *Table {
	s := RunCNNStudy(scale, seed)
	tab := &Table{
		Title:  fmt.Sprintf("Figure 7 — learning curves (%v scale)", scale),
		Header: []string{"epoch", "full-fixed err%"},
	}
	for _, r := range s.History.Rates {
		tab.Header = append(tab.Header, fmt.Sprintf("subnet-%.4g err%%", r))
	}
	tab.Header = append(tab.Header, "full-fixed loss")
	for _, r := range s.History.Rates {
		tab.Header = append(tab.Header, fmt.Sprintf("subnet-%.4g loss", r))
	}
	for e := range s.History.Epochs {
		row := []string{fmt.Sprintf("%d", e), f2(s.DirectHistory.Epochs[e].PerRate[0].ErrorRate())}
		for i := range s.History.Rates {
			row = append(row, f2(s.History.Epochs[e].PerRate[i].ErrorRate()))
		}
		row = append(row, f3(s.DirectHistory.Epochs[e].PerRate[0].Loss))
		for i := range s.History.Rates {
			row = append(row, f3(s.History.Epochs[e].PerRate[i].Loss))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"paper: larger subnets learn faster; smaller subnets closely follow (knowledge distillation effect)")
	return tab
}

// Fig8 reproduces the prediction-consistency heat maps: the inclusion
// coefficient of wrongly-predicted sample sets between each pair of (a)
// independently trained fixed models and (b) subnets sliced from the
// slicing-trained model.
func Fig8(scale Scale, seed int64) *Table {
	s := RunCNNStudy(scale, seed)
	test := s.Data.TestBatches(64)

	rates := append([]float64(nil), s.Rates...)
	fixedWrong := make([]map[int]bool, len(rates))
	slicedWrong := make([]map[int]bool, len(rates))
	for i, r := range rates {
		fixedWrong[i] = train.WrongSet(s.Fixed[r], 1, 0, test)
		slicedWrong[i] = train.WrongSet(s.Sliced, r, s.Rates.WidthIdx(r), test)
	}
	tab := &Table{
		Title:  fmt.Sprintf("Figure 8 — error-set inclusion coefficients (%v scale)", scale),
		Header: []string{"family", "pair", "inclusion"},
	}
	var fixedSum, slicedSum float64
	var pairs int
	for i := range rates {
		for j := i + 1; j < len(rates); j++ {
			pair := fmt.Sprintf("%.4g vs %.4g", rates[i], rates[j])
			fi := train.InclusionCoefficient(fixedWrong[i], fixedWrong[j])
			si := train.InclusionCoefficient(slicedWrong[i], slicedWrong[j])
			tab.Rows = append(tab.Rows, []string{"fixed-models", pair, f3(fi)})
			tab.Rows = append(tab.Rows, []string{"sliced-subnets", pair, f3(si)})
			fixedSum += fi
			slicedSum += si
			pairs++
		}
	}
	if pairs > 0 {
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"mean inclusion: sliced %.3f vs fixed %.3f (paper: ≈0.75–0.97 vs ≈0.56–0.62 — slicing is far more consistent)",
			slicedSum/float64(pairs), fixedSum/float64(pairs)))
	}
	return tab
}
