package experiments

import (
	"fmt"

	"modelslicing/internal/train"
)

// Point is one (cost, accuracy) sample of a trade-off curve.
type Point struct {
	Label string
	MACs  int64
	Acc   float64
}

// Curve is one named series of a trade-off figure.
type Curve struct {
	Name   string
	Points []Point
}

// TradeoffResult is an accuracy-vs-FLOPs figure (Figures 2 and 5).
type TradeoffResult struct {
	Title  string
	Curves []Curve
}

// Render formats the figure as aligned text series.
func (t *TradeoffResult) Render() string {
	tab := &Table{Title: t.Title, Header: []string{"series", "point", "MACs", "accuracy"}}
	for _, c := range t.Curves {
		for _, p := range c.Points {
			tab.Rows = append(tab.Rows, []string{c.Name, p.Label,
				fmt.Sprintf("%d", p.MACs), pct(p.Acc)})
		}
	}
	return tab.Render()
}

// Fig5 reproduces Figure 5: VGG-13 classification accuracy vs inference
// FLOPs for model slicing, direct slicing of a conventionally trained model,
// the varying-width ensemble and the varying-depth ensemble.
func Fig5(scale Scale, seed int64) *TradeoffResult {
	s := RunCNNStudy(scale, seed)
	test := s.Data.TestBatches(64)
	out := &TradeoffResult{Title: fmt.Sprintf("Figure 5 — VGG-13 accuracy vs FLOPs (%v scale)", scale)}

	var slicedCurve, directCurve, widthCurve Curve
	slicedCurve.Name = "VGG-13 with Model Slicing (single model)"
	directCurve.Name = "VGG-13 with Direct Slicing (single model)"
	widthCurve.Name = "Ensemble of VGG-13 (varying width)"
	for _, r := range s.EvalRates {
		label := fmt.Sprintf("r=%.4g", r)
		macs, _ := s.SlicedCost(r)
		idx := s.Rates.WidthIdx(r)
		slicedCurve.Points = append(slicedCurve.Points, Point{label, macs,
			train.Evaluate(s.Sliced, r, idx, test).Accuracy})
		directCurve.Points = append(directCurve.Points, Point{label, macs,
			train.Evaluate(s.Direct, r, idx, test).Accuracy})
		fm, _ := s.FixedCost(r)
		widthCurve.Points = append(widthCurve.Points, Point{label, fm,
			train.Evaluate(s.Fixed[r], 1, 0, test).Accuracy})
	}
	var depthCurve Curve
	depthCurve.Name = "Ensemble of VGG-13 (varying depth)"
	for i, m := range s.DepthModels {
		p, _ := measureFull(m, s.InShape)
		depthCurve.Points = append(depthCurve.Points, Point{s.DepthNames[i], p,
			train.Evaluate(m, 1, 0, test).Accuracy})
	}
	out.Curves = []Curve{widthCurve, depthCurve, slicedCurve, directCurve}
	return out
}

// Table4 reproduces the VGG-13 block of Table 4: remaining computation
// (Ct) and parameter (Mt) percentages and accuracy per slice rate for the
// lb=1.0 control, the fixed-model ensemble and the slicing-trained model.
func Table4(scale Scale, seed int64) *Table {
	s := RunCNNStudy(scale, seed)
	test := s.Data.TestBatches(64)
	tab := &Table{
		Title:  fmt.Sprintf("Table 4 — VGG-13 on the CIFAR-like task (%v scale)", scale),
		Header: []string{"row", "metric"},
	}
	// Columns descend from 1.0 like the paper.
	rates := make([]float64, len(s.EvalRates))
	copy(rates, s.EvalRates)
	for i, j := 0, len(rates)-1; i < j; i, j = i+1, j-1 {
		rates[i], rates[j] = rates[j], rates[i]
	}
	for _, r := range rates {
		tab.Header = append(tab.Header, fmt.Sprintf("r=%.4g", r))
	}

	fullMACs, fullParams := s.SlicedCost(1)
	ctRow := []string{"Ct/Mt", "% of full"}
	for _, r := range rates {
		m, p := s.SlicedCost(r)
		ctRow = append(ctRow, fmt.Sprintf("%.2f/%.2f",
			100*float64(m)/float64(fullMACs), 100*float64(p)/float64(fullParams)))
	}
	tab.Rows = append(tab.Rows, ctRow)

	addAccRow := func(name string, acc func(r float64) float64) {
		row := []string{name, "acc %"}
		for _, r := range rates {
			row = append(row, f2(100*acc(r)))
		}
		tab.Rows = append(tab.Rows, row)
	}
	addAccRow("VGG-13-lb-1.0 (direct slicing)", func(r float64) float64 {
		return train.Evaluate(s.Direct, r, s.Rates.WidthIdx(r), test).Accuracy
	})
	addAccRow("VGG-13-fixed-models", func(r float64) float64 {
		return train.Evaluate(s.Fixed[r], 1, 0, test).Accuracy
	})
	addAccRow(fmt.Sprintf("VGG-13-lb-%.3g (model slicing)", s.Rates.Min()), func(r float64) float64 {
		return train.Evaluate(s.Sliced, r, s.Rates.WidthIdx(r), test).Accuracy
	})
	tab.Notes = append(tab.Notes,
		"paper (CIFAR-10): direct slicing collapses off-full-width; slicing tracks fixed models and collapses only below lb",
		"paper reference rows: VGG-13-lb-1.0: 94.31 87.55 67.93 44.18 21.37 12.23 10.19 | fixed: 94.31 93.92 93.86 93.79 93.39 92.85 91.63 | lb-0.375: 94.32 94.27 94.22 94.11 93.90 93.57 16.87")
	return tab
}
