// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5) on the synthetic stand-in workloads, printing the
// same rows/series the paper reports next to the paper's reference values.
// `msbench -list` prints the experiment index.
package experiments

import (
	"fmt"
	"strings"

	"modelslicing/internal/data"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// Scale selects the dataset/model/epoch sizing of an experiment run.
type Scale int

const (
	// Micro exercises every code path in seconds; results carry no signal.
	// Used by the test suite.
	Micro Scale = iota - 1
	// Tiny finishes each experiment in minutes — the benchmark harness
	// default.
	Tiny
	// Small is the default for cmd/msbench: minutes per experiment, stable
	// orderings.
	Small
	// Medium runs longer for tighter curves.
	Medium
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "micro":
		return Micro, nil
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	default:
		return Tiny, fmt.Errorf("unknown scale %q (want micro|tiny|small|medium)", s)
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Micro:
		return "micro"
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// cnnSizing bundles the knobs of a CNN experiment at one scale. The noise
// and learning-rate values were calibrated so that the mini models reach
// their accuracy plateau within the epoch budget on 2 CPU cores (re-run them
// with `msbench -exp <id>`, ids from `msbench -list`); augmentation is
// disabled below Medium scale because at a few hundred samples it delays
// convergence past the budget.
type cnnSizing struct {
	TrainN, TestN int
	Epochs        int
	Batch         int
	Granularity   int
	LB            float64
	LR            float64
	HW            int
	Noise         float64
	Shared        float64
	Augment       bool
}

func cnnSizingFor(s Scale) cnnSizing {
	switch s {
	case Micro:
		return cnnSizing{TrainN: 64, TestN: 64, Epochs: 2, Batch: 32,
			Granularity: 4, LB: 0.25, LR: 0.03,
			HW: 8, Noise: 0.3, Shared: 0.25}
	case Tiny:
		return cnnSizing{TrainN: 320, TestN: 240, Epochs: 40, Batch: 32,
			Granularity: 4, LB: 0.25, LR: 0.03,
			HW: 12, Noise: 0.3, Shared: 0.25}
	case Medium:
		return cnnSizing{TrainN: 2000, TestN: 800, Epochs: 60, Batch: 32,
			Granularity: 8, LB: 0.375, LR: 0.03,
			HW: 16, Noise: 0.5, Shared: 0.45, Augment: true}
	default:
		return cnnSizing{TrainN: 800, TestN: 400, Epochs: 40, Batch: 32,
			Granularity: 8, LB: 0.375, LR: 0.03,
			HW: 16, Noise: 0.4, Shared: 0.35}
	}
}

// lrSchedule returns the shared CNN step-decay schedule (÷10 at 60% and
// 85% of the budget — the paper's 50%/75% shifted late because slicing
// training needs most of its progress before the first decay).
func (sz cnnSizing) lrSchedule() *train.StepDecay {
	return train.NewStepDecay(sz.LR, 10, train.MilestonesAt(sz.Epochs, 0.6, 0.85)...)
}

// dataset builds the CIFAR-like stand-in at this sizing.
func (sz cnnSizing) dataset() (*data.Images, []int) {
	cfg := data.CIFARLike(sz.TrainN, sz.TestN)
	cfg.H, cfg.W = sz.HW, sz.HW
	cfg.Noise, cfg.SharedWeight = sz.Noise, sz.Shared
	d := data.GenerateImages(cfg)
	return d, []int{cfg.Channels, cfg.H, cfg.W}
}

type nnlmSizing struct {
	TrainLen, TestLen int
	Epochs            int
	SeqLen, Batch     int
	Granularity       int
	LB                float64
	LR                float64
}

func nnlmSizingFor(s Scale) nnlmSizing {
	switch s {
	case Micro:
		return nnlmSizing{TrainLen: 2000, TestLen: 600, Epochs: 1,
			SeqLen: 8, Batch: 8, Granularity: 4, LB: 0.25, LR: 2}
	case Tiny:
		return nnlmSizing{TrainLen: 8000, TestLen: 2000, Epochs: 6,
			SeqLen: 16, Batch: 16, Granularity: 4, LB: 0.25, LR: 2}
	case Medium:
		return nnlmSizing{TrainLen: 40000, TestLen: 8000, Epochs: 10,
			SeqLen: 16, Batch: 16, Granularity: 8, LB: 0.375, LR: 2}
	default:
		return nnlmSizing{TrainLen: 20000, TestLen: 4000, Epochs: 6,
			SeqLen: 16, Batch: 16, Granularity: 8, LB: 0.375, LR: 2}
	}
}

// PaperWeights returns the R-weighted sampling weights generalized from the
// paper's (0.5, 0.125, 0.125, 0.25) over (1.0, 0.75, 0.5, 0.25): half the
// mass on the full network, a quarter on the base network, the rest split
// uniformly (Section 3.4: the full and base networks are the two most
// important subnets).
func PaperWeights(rates slicing.RateList) []float64 {
	n := len(rates)
	w := make([]float64, n)
	switch n {
	case 1:
		w[0] = 1
	case 2:
		w[0], w[n-1] = 0.5, 0.5
	default:
		w[0] = 0.25
		w[n-1] = 0.5
		rest := 0.25 / float64(n-2)
		for i := 1; i < n-1; i++ {
			w[i] = rest
		}
	}
	return w
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
