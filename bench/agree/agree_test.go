package main

import (
	"testing"

	"modelslicing/bench/spec"
)

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := spec.Metric{Name: "lat_ms_p50", Better: "lower", Bound: &bound}
	higher := spec.Metric{Name: "goodput_qps", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m    spec.Metric
		b    []float64
		want string
	}{
		{lower, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, []float64{85, 84, 86, 85, 85}, "ok"}, // better is never worse
		{higher, []float64{85, 84, 86, 85, 85}, "worse"},
		{higher, []float64{115, 114, 116, 115, 115}, "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, "unresolved"},
	} {
		if _, _, _, _, got := verdict(c.m, steady, c.b); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Name, c.b, got, c.want)
		}
	}
}
