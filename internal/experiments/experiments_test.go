package experiments

import (
	"math"
	"strings"
	"testing"

	"modelslicing/internal/slicing"
)

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"micro", Micro}, {"tiny", Tiny}, {"Small", Small}, {"MEDIUM", Medium}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
	}
	_, err := ParseScale("huge")
	if err == nil || !strings.Contains(err.Error(), "micro|tiny|small|medium") {
		t.Fatalf("ParseScale(huge) error %v, want one listing micro|tiny|small|medium", err)
	}
}

func TestScaleString(t *testing.T) {
	for s, want := range map[Scale]string{Micro: "micro", Tiny: "tiny", Small: "small", Medium: "medium"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %s", int(s), s)
		}
	}
}

func TestPaperWeights(t *testing.T) {
	rates := slicing.NewRateList(0.25, 4)
	w := PaperWeights(rates)
	want := []float64{0.25, 0.125, 0.125, 0.5}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("PaperWeights = %v, want %v", w, want)
		}
	}
	sum := 0.0
	for _, v := range PaperWeights(slicing.NewRateList(0.375, 8)) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights must sum to 1, got %v", sum)
	}
}

func TestRateFrac(t *testing.T) {
	if n, d := rateFrac(0.375, 8); n != 3 || d != 8 {
		t.Fatalf("rateFrac(0.375, 8) = %d/%d", n, d)
	}
	if n, d := rateFrac(1.0, 4); n != 4 || d != 4 {
		t.Fatalf("rateFrac(1.0, 4) = %d/%d", n, d)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "1"}},
		Notes:  []string{"hello"},
	}
	out := tab.Render()
	for _, want := range []string{"=== demo ===", "xxxxx", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryListsAllExperiments(t *testing.T) {
	ids := List()
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table1", "table2", "table3", "table4", "table4-large", "table5"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry has %v, want %v", ids, want)
		}
	}
	if _, err := Run("nope", Micro, 1); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestAllExperimentsRunAtMicroScale exercises every experiment end-to-end at
// the micro scale: outputs carry no statistical signal, but every arm,
// baseline and rendering path must run without panicking and produce rows.
func TestAllExperimentsRunAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping micro experiment sweep in -short mode")
	}
	for _, id := range List() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := Run(id, Micro, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "===") || len(out) < 80 {
				t.Fatalf("experiment %s output suspiciously small:\n%s", id, out)
			}
		})
	}
}

// The CNN study memoizes per (scale, seed).
func TestCNNStudyMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CNN training in -short mode")
	}
	a := RunCNNStudy(Micro, 1)
	b := RunCNNStudy(Micro, 1)
	if a != b {
		t.Fatal("study must be cached per scale+seed")
	}
	if a.Sliced == nil || a.Direct == nil || len(a.Fixed) == 0 {
		t.Fatal("study must hold all arms")
	}
	if len(a.History.Epochs) != a.Sizing.Epochs {
		t.Fatalf("history has %d epochs, want %d", len(a.History.Epochs), a.Sizing.Epochs)
	}
	if len(a.GammaTrace) != 2 {
		t.Fatalf("expected 2 γ traces, got %d", len(a.GammaTrace))
	}
}
