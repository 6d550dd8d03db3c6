package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/slicing"
)

// liveServer runs on the real clock with a short SLO so HTTP requests are
// answered within a few window ticks.
func liveServer(t *testing.T) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s, err := New(Config{
		Model:            models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:            slicing.NewRateList(0.25, 4),
		InputShape:       []int{4},
		SLO:              20 * time.Millisecond,
		CalibrationBatch: 8,
		// Pin the tier so the /metrics assertions survive the CI sweeps
		// over MS_ENGINE_TIER.
		Tier: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestHTTPPredict(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{Input: []float64{1, -0.5, 2, 0.3}})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Output) != 3 || out.ArgMax < 0 || out.ArgMax > 2 {
		t.Fatalf("bad response %+v", out)
	}
	if out.Rate < 0.25 || out.Rate > 1 {
		t.Fatalf("served rate %v outside the rate list", out.Rate)
	}
}

func TestHTTPPredictRejectsBadInput(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{`{"input":[1,2]}`, `not json`} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s := liveServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Serve one query so the counters are non-trivial.
	body, _ := json.Marshal(PredictRequest{Input: []float64{0, 1, 0, -1}})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, w := range []string{
		"msserver_queries_processed_total 1",
		"msserver_batches_total",
		`msserver_sample_time_seconds{rate="0.25"}`,
		"# TYPE msserver_queue_depth gauge",
		"# TYPE msserver_pack_cache_bytes gauge",
		"# TYPE msserver_backlog_windows gauge",
		"# TYPE msserver_backlog_seconds gauge",
		"# TYPE msserver_backlog_peak_windows gauge",
		"# TYPE msserver_window_slack_seconds gauge",
		"# TYPE msserver_window_ahead_seconds gauge",
		"# TYPE msserver_inflight_queries gauge",
		"msserver_degraded_batches_total",
		`msserver_engine_tier{tier="exact"} 1`,
		`msserver_engine_tier{tier="fma"} 0`,
		`msserver_gemm_kernel_total{tier="exact",kernel="scalar"}`,
		`msserver_gemm_kernel_total{tier="fma",kernel="vector"}`,
		// Failure-domain surface: a healthy run exposes the counters at
		// zero and the brownout circuit closed.
		"msserver_worker_panics_total 0",
		"msserver_stuck_shards_total 0",
		"msserver_workers_replaced_total 0",
		"msserver_failed_queries_total 0",
		"msserver_circuit_state 0",
		"msserver_circuit_trips_total 0",
		"msserver_circuit_pinned_windows_total 0",
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics missing %q:\n%s", w, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string  `json:"status"`
		SLOms       float64 `json:"slo_ms"`
		CircuitOpen *bool   `json:"circuit_open"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.SLOms != 20 {
		t.Fatalf("healthz body %+v", health)
	}
	if health.CircuitOpen == nil || *health.CircuitOpen {
		t.Fatalf("healthz circuit_open %v, want present and false", health.CircuitOpen)
	}

	s.Stop()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after stop: %d, want 503", resp.StatusCode)
	}
}
