package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"modelslicing/bench/spec"
)

func loadSpec(t *testing.T) *spec.Benchmark {
	t.Helper()
	b, err := spec.Load("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runShort drives one workload for half a second with a single set-up. It
// does not hold the run to the generator audit: a phase of a few hundredths of
// a second is shorter than one scheduler hiccup.
func runShort(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	rep, err := run(options{
		workload: workload, seed: 7, seconds: 0.5, trace: trace,
		scratch: t.TempDir(), traceDir: t.TempDir(), setups: 1,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// TestContract checks BENCHMARK.json against the limits the driver enforces
// before a single run.
func TestContract(t *testing.T) {
	b := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	// 4 + 22 × workloads runs, each with warm-up and set-up on top of
	// run_seconds (about 6 s here), and two builds must fit in 3420 s.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)*(1+warmShare)+6)+200 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's time cap", runs, b.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads named, %d implemented", len(b.Workloads), len(workloads))
	}
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(append([]spec.Metric(nil), b.EndToEnd...), b.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestWorkloads runs every workload in both modes: each end-to-end name is
// emitted and non-zero on every workload, each per-layer name is emitted by
// some workload and no run emits a name BENCHMARK.json does not list, every
// span's parent exists, and self times account for the enclosing spans.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("drives six live workloads")
	}
	b := loadSpec(t)
	perLayer := map[string]bool{}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = false
	}
	for _, w := range b.Workloads {
		rep := runShort(t, w.Name, false)
		var out bytes.Buffer
		if err := rep.print(&out, b); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("%s: result keys are not exactly correct, attempted, failed, metrics: %s", w.Name, lines[len(lines)-1])
		}
		for _, m := range b.EndToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want non-zero", w.Name, m.Name, v, ok)
			}
		}

		rep = runShort(t, w.Name, true)
		for k := range rep.Metrics {
			if _, ok := perLayer[k]; !ok {
				t.Errorf("%s: emitted %s, which BENCHMARK.json does not list", w.Name, k)
			}
			perLayer[k] = true
		}
		if len(rep.spans) == 0 {
			t.Errorf("%s: the traced run recorded no span", w.Name)
		}
		for i, s := range rep.spans {
			if s.parent < -1 || int(s.parent) >= i {
				t.Fatalf("%s: span %d (%s) names parent %d, which does not precede it", w.Name, i, s.name, s.parent)
			}
			if s.parent >= 0 && rep.spans[s.parent].op != s.op {
				t.Fatalf("%s: span %d (%s) and its parent belong to different operations", w.Name, i, s.name)
			}
		}
		if c := rep.Metrics["bench.self_time_cover"]; c < 0.9 || c > 1.1 {
			t.Errorf("%s: self times cover %.3f of the enclosing spans, want within 10%%", w.Name, c)
		}
		raw, err := os.ReadFile(rep.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil || len(events) != len(rep.spans) {
			t.Errorf("%s: trace file does not load as %d trace events: %v", w.Name, len(rep.spans), err)
		}
	}
	for k, emitted := range perLayer {
		if !emitted {
			t.Errorf("no workload emits per-layer metric %s", k)
		}
	}
}

// TestSameSeedSameInputs: the seed fixes the arrival schedule and, through
// the model and inputs, the exact kernel counts.
func TestSameSeedSameInputs(t *testing.T) {
	draw := func() []time.Duration {
		return schedule(rand.New(rand.NewSource(3)), serveVGG.phases, time.Second).due
	}
	if a, b := draw(), draw(); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed gave different arrival schedules (%d and %d arrivals)", len(a), len(b))
	}
	if testing.Short() {
		return
	}
	a, b := runShort(t, "infer_vgg", true).Metrics, runShort(t, "infer_vgg", true).Metrics
	for k, v := range a {
		if strings.HasPrefix(k, "tensor.") && v != b[k] {
			t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
		}
	}
}

// TestRefusesArmedFaults: a run with fault injection armed is refused.
func TestRefusesArmedFaults(t *testing.T) {
	t.Setenv("MS_FAULTS", "worker-panic=p0.1")
	if _, err := run(options{workload: "infer_vgg", seconds: 0.1, scratch: t.TempDir(), setups: 1}); err == nil {
		t.Error("run accepted an armed MS_FAULTS")
	}
}

// TestQuartiles pins the quartile arithmetic to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := spec.Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spec.Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread %v, want 1", s)
	}
}
