package experiments

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/models"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// Table1 reproduces the slice-rate scheduling-scheme ablation: VGG-13
// trained under Fixed (per-width models), R-uniform-2, R-weighted-2,
// R-weighted-3, Static, R-min, R-max, R-min-max and SlimmableNet (static
// scheduling + per-width batch-norms), evaluated at rates 1.0/0.75/0.5/0.25.
func Table1(scale Scale, seed int64) *Table {
	sz := cnnSizingFor(scale)
	rates := slicing.NewRateList(0.25, 4) // the paper's Table-1 rate list
	weights := PaperWeights(rates)        // (0.25, 0.125, 0.125, 0.5) ascending

	d, _ := sz.dataset()
	test := d.TestBatches(64)

	type arm struct {
		name  string
		norm  models.Norm
		sched slicing.Scheduler
	}
	arms := []arm{
		{"R-uniform-2", models.NormGroup, slicing.NewRandomUniform(rates, 2)},
		{"R-weighted-2", models.NormGroup, slicing.NewRandomWeighted(rates, weights, 2)},
		{"R-weighted-3", models.NormGroup, slicing.NewRandomWeighted(rates, weights, 3)},
		{"Static", models.NormGroup, slicing.Static{Rates: rates}},
		{"R-min", models.NormGroup, slicing.NewRMin(rates)},
		{"R-max", models.NormGroup, slicing.NewRMax(rates)},
		{"R-min-max", models.NormGroup, slicing.NewRMinMax(rates)},
		{"Slimmable", models.NormSwitchable, slicing.Static{Rates: rates}},
	}

	tab := &Table{
		Title:  fmt.Sprintf("Table 1 — scheduling schemes, VGG-13 (%v scale)", scale),
		Header: []string{"scheme", "|Lt|"},
	}
	// Columns descend from 1.0 as in the paper.
	cols := []float64{1.0, 0.75, 0.5, 0.25}
	for _, r := range cols {
		tab.Header = append(tab.Header, fmt.Sprintf("r=%.2f", r))
	}

	// Fixed baseline: four independently trained models.
	rng := rand.New(rand.NewSource(seed))
	fixedRow := []string{"Fixed", "4"}
	for _, r := range cols {
		num, den := rateFrac(r, 4)
		cfg := models.VGG13Mini(1, models.NormGroup, 1).ScaleWidths(num, den)
		m, _ := models.NewVGG(cfg, rng)
		trainFixedCNN(m, d, sz, rng)
		fixedRow = append(fixedRow, f2(100*train.Evaluate(m, 1, 0, test).Accuracy))
	}
	tab.Rows = append(tab.Rows, fixedRow)

	for _, a := range arms {
		rng := rand.New(rand.NewSource(seed + 1))
		cfg := models.VGG13Mini(4, a.norm, len(rates))
		m, _ := models.NewVGG(cfg, rng)
		trainCNN(m, rates, a.sched, d, sz, rng, nil)
		row := []string{a.name, fmt.Sprintf("%d", len(a.sched.Next(rng)))}
		for _, r := range cols {
			row = append(row, f2(100*train.Evaluate(m, r, rates.MustIndex(r), test).Accuracy))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"paper: weighted random scheduling beats uniform and static; R-min/R-max lift their pinned subnet; Slimmable wins at full width but trails at 0.25",
		"paper reference (r=1.0/0.75/0.5/0.25): Fixed 94.31/93.86/93.39/91.63, R-weighted-3 94.34/94.20/93.92/91.96, Static 93.67/93.46/93.19/91.69, Slimmable 94.41/94.29/93.47/91.45")
	return tab
}

// Fig3 reproduces the lower-bound ablation: VGG-13 trained with lb ∈
// {0.25 … 1.0}; accuracy degrades gracefully down to each lb and collapses
// below it.
func Fig3(scale Scale, seed int64) *Table {
	sz := cnnSizingFor(scale)
	d, _ := sz.dataset()
	test := d.TestBatches(64)
	granularity := 4
	lbs := []float64{0.25, 0.5, 0.75, 1.0}
	if scale != Tiny {
		granularity = 8
		lbs = []float64{0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}
	}
	evalRates := slicing.NewRateList(1.0/float64(granularity), granularity)

	tab := &Table{
		Title:  fmt.Sprintf("Figure 3 — lower-bound ablation, VGG-13 (%v scale)", scale),
		Header: []string{"lb"},
	}
	for i := len(evalRates) - 1; i >= 0; i-- {
		tab.Header = append(tab.Header, fmt.Sprintf("err%%@%.4g", evalRates[i]))
	}
	for _, lb := range lbs {
		rng := rand.New(rand.NewSource(seed))
		rates := slicing.NewRateList(lb, granularity)
		cfg := models.VGG13Mini(granularity, models.NormGroup, len(rates))
		m, _ := models.NewVGG(cfg, rng)
		var sched slicing.Scheduler = slicing.NewRandomWeighted(rates, PaperWeights(rates), 3)
		if len(rates) == 1 {
			sched = slicing.Fixed{Rate: 1.0}
		}
		trainCNN(m, rates, sched, d, sz, rng, nil)
		row := []string{fmt.Sprintf("%.4g", lb)}
		for i := len(evalRates) - 1; i >= 0; i-- {
			r := evalRates[i]
			res := train.Evaluate(m, r, rates.WidthIdx(r), test)
			row = append(row, f2(res.ErrorRate()))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"paper: error rises gently while r ≥ lb, then jumps sharply below lb (slicing the base network destroys its representation)")
	return tab
}
