package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modelslicing/internal/faults"
)

// TestStateSnapshot pins the coordinator-facing /state contract: the fields
// a fleet coordinator rebuilds its replica model from — policy axis, sorted
// t(r) table, backlog horizon — both via the method and over HTTP.
func TestStateSnapshot(t *testing.T) {
	s, clk := testServer(t, func(c *Config) {
		c.QueueFactor = 1000
		c.MaxBacklogWindows = 1000
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := s.State()
	if st.SLOms != 2000 || st.WindowS != 1 {
		t.Fatalf("policy axis slo_ms=%g window_s=%g, want 2000/1", st.SLOms, st.WindowS)
	}
	if len(st.Rates) != 4 || st.Rates[0] != 0.25 || st.Rates[3] != 1 {
		t.Fatalf("rates %v", st.Rates)
	}
	for i := 1; i < len(st.SampleTimes); i++ {
		if st.SampleTimes[i].Rate <= st.SampleTimes[i-1].Rate {
			t.Fatalf("sample_times not sorted ascending: %v", st.SampleTimes)
		}
	}
	if st.BacklogAheadS != 0 || st.QueueDepth != 0 || st.CircuitOpen || st.Stopping {
		t.Fatalf("fresh server state %+v", st)
	}

	// 32 pending queries at rate 0.25 are 2 s of work against a 1 s window:
	// the close dispatches the batch, so the horizon runs 2 s past the
	// close instant.
	for i := 0; i < 32; i++ {
		if _, err := s.Submit(input(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st = s.State(); st.QueueDepth != 32 {
		t.Fatalf("queue depth %d, want 32", st.QueueDepth)
	}
	clk.Tick(time.Second)
	var wire State
	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wire.BacklogAheadS != 2 {
		t.Fatalf("backlog_ahead_s %g, want 2 (the batch was just dispatched)", wire.BacklogAheadS)
	}
	if wire.Windows != 1 || wire.QueueDepth != 0 {
		t.Fatalf("wire state after close %+v", wire)
	}
}

func TestSampleTimeTableNearestFallback(t *testing.T) {
	f := SampleTimeTable([]RateTime{{Rate: 1, Seconds: 1}, {Rate: 0.25, Seconds: 0.0625}, {Rate: 0.5, Seconds: 0.25}})
	for _, tc := range []struct{ r, want float64 }{
		{0.25, 0.0625}, {0.5, 0.25}, {1, 1}, // exact rows
		{0.3, 0.0625}, {0.7, 0.25}, {2, 1}, // nearest known rate
	} {
		if got := f(tc.r); got != tc.want {
			t.Fatalf("t(%g) = %g, want %g", tc.r, got, tc.want)
		}
	}
	if got := SampleTimeTable(nil)(0.5); got != 0 {
		t.Fatalf("empty table t(0.5) = %g, want 0", got)
	}
}

// TestRetryAfterTracksHorizon pins the Retry-After derivation: the wait is
// when admitting one more window of traffic becomes feasible — the backlog
// horizon minus the half-window admission lookahead and the window budget —
// floored at one half-window so clients never busy-poll.
func TestRetryAfterTracksHorizon(t *testing.T) {
	s, clk := testServer(t, func(c *Config) {
		c.QueueFactor = 1000
		c.MaxBacklogWindows = 1000
	})
	halfWindow := time.Second // SLO 2 s

	// Empty backlog: nothing to wait out; the floor applies.
	if got := s.RetryAfter(clk.Now()); got != halfWindow {
		t.Fatalf("empty-backlog RetryAfter %v, want the %v floor", got, halfWindow)
	}

	// 128 queries at rate 0.25 are 8 s of work: after the close at t=1 the
	// horizon sits at 9 s. A query admitted after the wait lands in a window
	// whose slack clears the remaining backlog: 9 − 1(now) − 1(half-window
	// lookahead) − 1(window budget) = 6 s.
	for i := 0; i < 128; i++ {
		if _, err := s.Submit(input(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Tick(time.Second)
	if ahead := s.State().BacklogAheadS; ahead != 8 {
		t.Fatalf("backlog ahead %g s, want 8", ahead)
	}
	if got, want := s.RetryAfter(clk.Now()), 6*time.Second; got != want {
		t.Fatalf("RetryAfter %v, want %v (horizon-derived)", got, want)
	}

	// The wait drains with the clock, back down to the floor.
	clk.Tick(5 * time.Second)
	if got := s.RetryAfter(clk.Now()); got != halfWindow {
		t.Fatalf("drained RetryAfter %v, want the %v floor", got, halfWindow)
	}
}

// TestHTTPOverloadRetryAfter pins the satellite contract: a 503 from
// admission control carries the standard integer-seconds Retry-After header
// and the exact retry_after_ms in the body, both derived from the horizon.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	s, clk := testServer(t, func(c *Config) { c.FixedRate = 1.0 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fixed-width capacity is one query per window; the first occupies it.
	if _, err := s.Submit(input(1)); err != nil {
		t.Fatal(err)
	}
	wantMs := float64(s.RetryAfter(clk.Now()).Microseconds()) / 1e3

	reqBody, _ := json.Marshal(PredictRequest{Input: []float64{1, 0, -1, 0.5}})
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if h := resp.Header.Get("Retry-After"); h != "1" {
		t.Fatalf("Retry-After header %q, want %q (1 s half-window floor, integer ceiling)", h, "1")
	}
	var body struct {
		Error        string  `json:"error"`
		RetryAfterMs float64 `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RetryAfterMs != wantMs {
		t.Fatalf("retry_after_ms %g, want %g", body.RetryAfterMs, wantMs)
	}
	if body.Error == "" {
		t.Fatal("503 body missing the error string")
	}
}

// TestDrainSweepReclaimsStuckShard pins the shutdown-drain sweep: the
// real-time watchdog sweep lets Stop reclaim a shard wedged during shutdown.
func TestDrainSweepReclaimsStuckShard(t *testing.T) {
	s, clk := testServer(t, nil)
	if err := faults.Enable(faults.ShardStall, "first1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Reset()
	ch, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second) // dispatch the window; the shard stalls
	waitFired(t, faults.ShardStall, 1)
	// Move time past the watchdog bound WITHOUT a window tick: the batch
	// ticker is about to exit, so only the drain sweep can see the stuck
	// shard. Stop must still return promptly.
	clk.Advance(17 * time.Second) // past the 8·SLO = 16 s bound
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop wedged on a stuck shard; the drain sweep never ran")
	}
	if res := <-ch; !errors.Is(res.Err, ErrShardStuck) {
		t.Fatalf("stalled query answered err=%v, want ErrShardStuck", res.Err)
	}
}
