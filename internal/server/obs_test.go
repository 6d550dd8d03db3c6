package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/obs"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
)

// TestLockstepDecisionRecordsAgree is the flight-recorder half of the
// lockstep contract: the clock-free simulation and the live server under a
// FakeClock, driven with the same arrival trace, must write *identical*
// obs.DecisionRecord values — every input, the derived Depth, and the
// explanation string, not just the chosen rate. DecisionRecord is fully
// comparable, so the diff is a plain ==.
func TestLockstepDecisionRecordsAgree(t *testing.T) {
	rates := slicing.NewRateList(0.25, 4)
	arrivals := []int{3, 20, 1, 1, 0, 17, 2, 1, 5, 16, 1, 0, 1}

	simRec := obs.NewRecorder(decisionLog) // Depth derives from the ring: sizes must match
	sim := serving.Simulate(serving.Config{
		LatencySLO: 2, FullSampleTime: 1, Rates: rates, Recorder: simRec,
	}, arrivals)

	rng := rand.New(rand.NewSource(1))
	clk := NewFakeClock(time.Unix(0, 0))
	s, err := New(Config{
		Model:             models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:             rates,
		InputShape:        []int{4},
		SLO:               2 * time.Second,
		Workers:           2,
		Clock:             clk,
		SampleTime:        func(r float64) float64 { return r * r },
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	for k, n := range arrivals {
		for j := 0; j < n; j++ {
			if _, err := s.Submit(input(int64(100*k + j))); err != nil {
				t.Fatalf("window %d submit %d: %v", k, j, err)
			}
		}
		clk.Tick(time.Second)
	}

	simRecs, liveRecs := simRec.Snapshot(), s.Recorder().Snapshot()
	nonEmpty := 0
	for _, n := range arrivals {
		if n > 0 {
			nonEmpty++
		}
	}
	if len(simRecs) != nonEmpty || len(liveRecs) != nonEmpty {
		t.Fatalf("recorded %d sim / %d live decisions, want %d (one per non-empty window)",
			len(simRecs), len(liveRecs), nonEmpty)
	}
	for i := range simRecs {
		if simRecs[i] != liveRecs[i] {
			t.Errorf("decision %d diverges:\n sim:  %+v\n live: %+v", i, simRecs[i], liveRecs[i])
		}
	}
	// The explanations must line up with the outcome counters the original
	// lockstep test pins: every degraded window carries a backlog-* reason.
	degraded := 0
	for _, r := range liveRecs {
		if strings.HasPrefix(r.Reason, "backlog-") {
			degraded++
		}
	}
	if degraded != sim.DegradedWindows {
		t.Fatalf("%d backlog-* reasons, simulation counted %d degraded windows", degraded, sim.DegradedWindows)
	}
}

// TestDebugDecisionsExplainsCascade drives the cascade regression trace and
// demands that /debug/decisions reconstructs the reason for every window:
// the two overruns are blamed on the batches themselves, window 2's
// infeasibility and window 3's rate drop on the backlog ahead of them.
func TestDebugDecisionsExplainsCascade(t *testing.T) {
	// MaxBacklogWindows 4: with all four windows wedged behind the gate, the
	// safety valve (not the clock-draining estimate) sheds the final probe.
	s, clk, _, _ := gatedServer(t, 2, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for k, n := range []int{20, 20, 20, 1} {
		for j := 0; j < n; j++ {
			_, _ = s.Submit(input(int64(100*k + j))) // window 2 sheds 4; fine
		}
		clk.Tick(time.Second)
	}

	resp, err := http.Get(ts.URL + "/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		TotalRecorded int64                `json:"total_recorded"`
		Decisions     []obs.DecisionRecord `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TotalRecorded != 4 || len(out.Decisions) != 4 {
		t.Fatalf("recorded %d decisions (%d retained), want 4", out.TotalRecorded, len(out.Decisions))
	}
	want := []struct {
		window   int64
		arrivals int
		rate     float64
		reason   string
	}{
		{0, 20, 0.25, "overrun"},            // 1.25 s of minimum work in a 1 s budget
		{1, 20, 0.25, "overrun"},            // still infeasible even with a free horizon
		{2, 16, 0.25, "backlog-infeasible"}, // fits a free window; 0.5 s of backlog kills it
		{3, 1, 0.5, "backlog-degraded"},     // an empty pool would serve r=1
	}
	for i, w := range want {
		d := out.Decisions[i]
		if d.Window != w.window || d.Arrivals != w.arrivals || d.Rate != w.rate || d.Reason != w.reason {
			t.Errorf("decision %d = window %d n=%d rate %g reason %q, want window %d n=%d rate %g reason %q",
				i, d.Window, d.Arrivals, d.Rate, d.Reason, w.window, w.arrivals, w.rate, w.reason)
		}
	}
	// Overloaded submissions carry the same evidence on the 503 body.
	body, _ := json.Marshal(PredictRequest{Input: []float64{1, 0, -1, 2}})
	resp, err = http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict on a saturated server: status %d, want 503", resp.StatusCode)
	}
	var shed struct {
		Error           string               `json:"error"`
		RecentDecisions []obs.DecisionRecord `json:"recent_decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Error == "" || len(shed.RecentDecisions) == 0 {
		t.Fatalf("503 body lacks the flight-recorder evidence: %+v", shed)
	}
	if last := shed.RecentDecisions[len(shed.RecentDecisions)-1]; last.Reason != "backlog-degraded" {
		t.Errorf("last recent decision reason %q, want the window-3 degradation", last.Reason)
	}
}

// TestHTTPPredictDebugStages pins the ?debug=1 stage breakdown: present on
// request, absent by default, and the four stages sum to the reported
// latency.
func TestHTTPPredictDebugStages(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{Input: []float64{1, -0.5, 2, 0.3}})
	resp, err := http.Post(ts.URL+"/predict?debug=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Stages == nil {
		t.Fatal("?debug=1 response has no stage breakdown")
	}
	sum := out.Stages.QueuedMs + out.Stages.DispatchMs + out.Stages.ComputeMs + out.Stages.SettleMs
	if diff := sum - out.LatencyMs; diff > 0.01 || diff < -0.01 {
		t.Errorf("stages sum to %.3f ms, latency is %.3f ms", sum, out.LatencyMs)
	}
	if out.Stages.QueuedMs < 0 || out.Stages.DispatchMs < 0 || out.Stages.ComputeMs < 0 || out.Stages.SettleMs < 0 {
		t.Errorf("negative stage in %+v", out.Stages)
	}

	resp, err = http.Post(ts.URL+"/predict", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out = PredictResponse{}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Stages != nil {
		t.Error("stage breakdown leaked into a non-debug response")
	}
}

// TestHTTPDebugTrace serves queries with sampling on every query and checks
// /debug/trace emits valid Chrome trace_event JSON covering all four stages.
func TestHTTPDebugTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := New(Config{
		Model:            models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:            slicing.NewRateList(0.25, 4),
		InputShape:       []int{4},
		SLO:              20 * time.Millisecond,
		CalibrationBatch: 8,
		TraceSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{Input: []float64{0, 1, 0, -1}})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q", ct)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 3*obs.NumStages {
		t.Fatalf("%d trace events, want %d (4 stages × 3 sampled queries)", len(events), 3*obs.NumStages)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if e.Ph != "X" || e.Dur < 0 || e.Ts < 0 {
			t.Errorf("malformed event %+v", e)
		}
		seen[e.Name] = true
	}
	for _, name := range obs.StageNames {
		if !seen[name] {
			t.Errorf("no %q events in the trace", name)
		}
	}
}

// promLine matches one Prometheus text-exposition sample line:
// name{labels} value — the validity check the /metrics contract promises.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)

// TestHTTPMetricsHistogramsValid serves traffic, then checks every /metrics
// line parses, the new histogram families are present, and each histogram's
// cumulative buckets are monotone with the +Inf bucket equal to _count.
func TestHTTPMetricsHistogramsValid(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{Input: []float64{0, 1, 0, -1}})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()

	for _, w := range []string{
		"msserver_windows_total",
		"msserver_arena_bytes",
		"# TYPE msserver_query_latency_seconds histogram",
		"msserver_query_latency_seconds_bucket{le=\"+Inf\"}",
		"msserver_query_latency_seconds_sum",
		"msserver_query_latency_seconds_count 4",
		`msserver_stage_latency_seconds_bucket{stage="queue",le="1e-06"}`,
		`msserver_stage_latency_seconds_count{stage="compute"}`,
		"# TYPE msserver_rate_latency_seconds histogram",
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics missing %q:\n%s", w, text)
		}
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	// Histogram contract: cumulative _bucket series are monotone
	// non-decreasing in le order (the exposition emits them that way) and the
	// +Inf bucket equals _count for each series.
	bucketLine := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{(.*)le="([^"]*)"\} ([0-9]+)$`)
	countLine := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_count(\{[^}]*\})? ([0-9]+)$`)
	type key struct{ fam, labels string }
	prev := map[key]int64{}
	inf := map[key]int64{}
	for _, line := range strings.Split(text, "\n") {
		if m := bucketLine.FindStringSubmatch(line); m != nil {
			k := key{m[1], strings.TrimSuffix(m[2], ",")}
			v, _ := strconv.ParseInt(m[4], 10, 64)
			if v < prev[k] {
				t.Fatalf("histogram %v not cumulative at %q: %d after %d", k, line, v, prev[k])
			}
			prev[k] = v
			if m[3] == "+Inf" {
				inf[k] = v
			}
		}
	}
	if len(inf) == 0 {
		t.Fatal("no +Inf buckets found in /metrics")
	}
	for _, line := range strings.Split(text, "\n") {
		if m := countLine.FindStringSubmatch(line); m != nil {
			k := key{m[1], strings.Trim(m[2], "{}")}
			v, _ := strconv.ParseInt(m[3], 10, 64)
			if got, ok := inf[k]; ok && got != v {
				t.Fatalf("histogram %v: +Inf bucket %d != _count %d", k, got, v)
			}
		}
	}
}
