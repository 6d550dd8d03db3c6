// Package spec reads BENCHMARK.json — the one place metric names, units,
// directions and bounds are written down — and holds the quartile arithmetic
// the harness and bench/agree share.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one entry of end_to_end (Bound set) or per_layer (Bound nil).
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Workload names one traffic mix and records why it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark mirrors BENCHMARK.json.
type Benchmark struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Load parses the benchmark definition at path.
func Load(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &b, nil
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so a
// spread computed here is the spread the acceptance check computes. It needs
// at least two values.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound is compared against.
func Spread(v []float64) float64 {
	q1, q2, q3 := Quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
