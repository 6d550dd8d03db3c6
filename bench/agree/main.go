// Command agree compares two sets of benchmark results against the bounds in
// BENCHMARK.json. A set is the result files (bench -out) of several runs per
// workload. It prints one row per workload × end-to-end metric — both medians,
// their ratio with its base, each set's run-to-run spread — and a verdict:
//
//	ok          the second median is no worse than the first by more than the bound
//	worse       it is
//	unresolved  a set's own spread is wider than the bound, so nothing can be said
//	            (setup_s is exempt, as in the driver's check: it is a median of
//	            few set-ups per run and only its medians are compared)
//
// It also derives fleet.hop_cpu_us, the coordinator hop's CPU cost: the
// difference between fleet_vgg's and http_vgg's run.cpu_us_per_query.
//
//	go run -C bench ./agree -spec ../BENCHMARK.json -a 'setA/*.json' -b 'setB/*.json'
//
// The exit code is 1 when any row is worse or unresolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"modelslicing/bench/spec"
)

// result is the part of a bench -out file agree reads.
type result struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Invalid  string             `json:"invalid"`
	Metrics  map[string]float64 `json:"metrics"`
	// Timing holds the run's ungated timings (run.* names).
	Timing map[string]float64 `json:"timing"`
}

// set maps workload → metric → one value per run.
type set map[string]map[string][]float64

func load(glob string) (set, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	s := set{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue // end-to-end metrics come only from untraced runs
		}
		if !r.Correct || r.Invalid != "" {
			return nil, fmt.Errorf("%s: the run failed its checks (correct=%v invalid=%q)", p, r.Correct, r.Invalid)
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for _, m := range []map[string]float64{r.Metrics, r.Timing} {
			for k, v := range m {
				s[r.Workload][k] = append(s[r.Workload][k], v)
			}
		}
	}
	return s, nil
}

// verdict judges the second set's median against the first's.
func verdict(m spec.Metric, a, b []float64) (medA, medB, spreadA, spreadB float64, v string) {
	_, medA, _ = spec.Quartiles(a)
	_, medB, _ = spec.Quartiles(b)
	spreadA, spreadB = spec.Spread(a), spec.Spread(b)
	worse := medB - medA
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(spreadA, spreadB) > *m.Bound && m.Name != "setup_s":
		v = "unresolved"
	case medA != 0 && worse/math.Abs(medA) > *m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

func run(specPath, globA, globB string) (bad int, err error) {
	b, err := spec.Load(specPath)
	if err != nil {
		return 0, err
	}
	setA, err := load(globA)
	if err != nil {
		return 0, err
	}
	setB, err := load(globB)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%-10s %-18s %12s %12s %18s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A (base A)", "spread A", "spread B", "bound", "verdict")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			a, bb := setA[w.Name][m.Name], setB[w.Name][m.Name]
			if len(a) < 2 || len(bb) < 2 {
				fmt.Printf("%-10s %-18s needs at least 2 runs in each set (have %d and %d)\n", w.Name, m.Name, len(a), len(bb))
				bad++
				continue
			}
			medA, medB, spA, spB, v := verdict(m, a, bb)
			if v != "ok" {
				bad++
			}
			ratio := 0.0
			if medA != 0 {
				ratio = medB / medA
			}
			fmt.Printf("%-10s %-18s %12.5g %12.5g %8.4f (%8.5g) %8.4f %8.4f %6.2f  %s\n",
				w.Name, m.Name, medA, medB, ratio, medA, spA, spB, *m.Bound, v)
		}
	}
	for i, s := range []set{setA, setB} {
		name := "AB"[i : i+1]
		fleet, single := s["fleet_vgg"]["run.cpu_us_per_query"], s["http_vgg"]["run.cpu_us_per_query"]
		if len(fleet) >= 2 && len(single) >= 2 {
			_, f, _ := spec.Quartiles(fleet)
			_, h, _ := spec.Quartiles(single)
			fmt.Printf("fleet.hop_cpu_us  set %s  %.1f us  (fleet_vgg %.1f − http_vgg %.1f)\n", name, f-h, f, h)
		}
	}
	return bad, nil
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	a := flag.String("a", "", "glob of the first set's result files (the base)")
	b := flag.String("b", "", "glob of the second set's result files")
	flag.Parse()
	bad, err := run(*specPath, *a, *b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Printf("%d rows are worse or unresolved\n", bad)
		os.Exit(1)
	}
	fmt.Println("the two sets agree within the bounds")
}
