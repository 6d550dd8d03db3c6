package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/models"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
)

// liveReplica runs one replica on the real clock with a short SLO and a
// pinned tiny t(r), so chaos tests turn windows over quickly without
// calibration noise.
func liveReplica(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s, err := server.New(server.Config{
		Model:      models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{4},
		SLO:        200 * time.Millisecond,
		Workers:    2,
		SampleTime: func(r float64) float64 { return 0.002 * r * r },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// liveFleet assembles n live replicas behind a coordinator with aggressive
// health checking, wired through a chaos Transport. mutate adjusts the
// coordinator config before construction.
func liveFleet(t *testing.T, n int, mutate func(*Config)) (*Coordinator, *Transport, []string) {
	t.Helper()
	tr := &Transport{}
	cfg := Config{
		SLO:           200 * time.Millisecond,
		Transport:     tr,
		HealthEvery:   15 * time.Millisecond,
		FailThreshold: 2,
		RejoinAfter:   1,
		RetryMax:      3,
		RetryBase:     -1, // immediate retries keep chaos tests fast
		HedgeAfter:    -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	urls := make([]string, n)
	for i := range urls {
		_, ts := liveReplica(t)
		urls[i] = ts.URL
		if err := coord.AddReplica(ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	return coord, tr, urls
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// drive pushes total queries through the fleet from conc workers and returns
// (successes, failures). Every call to Predict must return exactly once;
// the returned counts summing to total is the fleet-level one-reply
// contract.
func drive(t *testing.T, c *Coordinator, total, conc int) (int64, int64) {
	t.Helper()
	var ok, fail atomic.Int64
	var wg sync.WaitGroup
	per := (total + conc - 1) / conc
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < per && w*per+j < total; j++ {
				resp, err := c.Predict(context.Background(), inputVec(int64(w*per+j)))
				if err != nil {
					fail.Add(1)
					continue
				}
				if len(resp.Output) != 3 {
					t.Errorf("success reply with bad output %v", resp.Output)
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return ok.Load(), fail.Load()
}

// TestFleetChaosReplicaDownEjectRerouteRejoin is the tentpole scenario: a
// replica dies mid-trace. Every query still gets exactly one reply (the
// coordinator retries transient failures on different replicas), the dead
// replica is ejected within the health-check window and stops receiving
// traffic, and when it comes back it rejoins and serves again.
func TestFleetChaosReplicaDownEjectRerouteRejoin(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; the zero-loss assertions assume only the targeted replica fails")
	}
	coord, tr, urls := liveFleet(t, 3, nil)

	// Healthy warm-up: everything answers.
	ok, fail := drive(t, coord, 30, 6)
	if ok != 30 || fail != 0 {
		t.Fatalf("healthy fleet: %d ok, %d failed, want 30/0", ok, fail)
	}

	// Kill replica 0 (connection refused on every request).
	tr.SetDown(hostOf(urls[0]), true)
	ok, fail = drive(t, coord, 60, 6)
	if ok != 60 || fail != 0 {
		t.Fatalf("one replica down: %d ok, %d failed, want 60/0 (retries must absorb the loss)", ok, fail)
	}
	if retries := coord.Stats().Retries; retries == 0 {
		t.Fatal("no retries recorded while a replica was refusing traffic")
	}
	waitFor(t, "dead replica ejection", func() bool {
		return coord.Replicas()[0].Ejected
	})

	// Ejected replicas receive no traffic at all.
	routedAtEject := coord.Replicas()[0].Routed
	ok, fail = drive(t, coord, 40, 6)
	if ok != 40 || fail != 0 {
		t.Fatalf("post-ejection: %d ok, %d failed, want 40/0", ok, fail)
	}
	if got := coord.Replicas()[0].Routed; got != routedAtEject {
		t.Fatalf("ejected replica received traffic: routed %d → %d", routedAtEject, got)
	}

	// Recovery: the replica comes back, the health poller readmits it, and
	// routing uses it again.
	tr.SetDown(hostOf(urls[0]), false)
	waitFor(t, "replica rejoin", func() bool {
		st := coord.Replicas()[0]
		return !st.Ejected && st.Rejoins >= 1
	})
	ok, fail = drive(t, coord, 40, 6)
	if ok != 40 || fail != 0 {
		t.Fatalf("post-rejoin: %d ok, %d failed, want 40/0", ok, fail)
	}
	if got := coord.Replicas()[0].Routed; got <= routedAtEject {
		t.Fatalf("rejoined replica got no traffic: routed stuck at %d", got)
	}
	if st := coord.Stats(); st.Ejections < 1 || st.Rejoins < 1 {
		t.Fatalf("ejections=%d rejoins=%d, want ≥1 each", st.Ejections, st.Rejoins)
	}
}

// TestFleetChaosHedgeStraggler pins the hedging path: one replica stalls
// far past the hedge delay, so the coordinator launches a second copy on
// the healthy replica and the first reply wins — the query is answered fast
// and exactly once.
func TestFleetChaosHedgeStraggler(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; targeted hedge accounting is not deterministic")
	}
	coord, tr, urls := liveFleet(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 25 * time.Millisecond
	})
	// Replica 0 wins the empty-fleet tie-break, and every request to it
	// stalls for most of the predict timeout.
	tr.SetDelay(hostOf(urls[0]), 600*time.Millisecond)

	for j := 0; j < 4; j++ {
		resp, err := coord.Predict(context.Background(), inputVec(int64(j)))
		if err != nil {
			t.Fatalf("hedged predict %d: %v", j, err)
		}
		if len(resp.Output) != 3 {
			t.Fatalf("bad output %v", resp.Output)
		}
	}
	st := coord.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
	if st.Forwarded != 4 {
		t.Fatalf("forwarded %d, want 4 (exactly one reply per query)", st.Forwarded)
	}
}

// TestFleetChaosHedgePrimaryWins is the other side of the hedge race: the
// primary is slow enough to trigger a hedge but still answers before the
// hedge copy does. The hedge is counted, the win is not.
func TestFleetChaosHedgePrimaryWins(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; targeted hedge accounting is not deterministic")
	}
	coord, tr, urls := liveFleet(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 25 * time.Millisecond
	})
	// Replica 0 wins the empty-fleet tie-break and answers after 100 ms —
	// past the hedge delay; the hedge copy on replica 1 stalls far longer.
	tr.SetDelay(hostOf(urls[0]), 100*time.Millisecond)
	tr.SetDelay(hostOf(urls[1]), 2*time.Second)

	if _, err := coord.Predict(context.Background(), inputVec(1)); err != nil {
		t.Fatalf("hedged predict: %v", err)
	}
	st := coord.Stats()
	if st.Hedges != 1 || st.HedgeWins != 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/0: the primary's reply won", st.Hedges, st.HedgeWins)
	}
	if st.Forwarded != 1 {
		t.Fatalf("forwarded %d, want 1 (exactly one reply)", st.Forwarded)
	}
}

// TestFleetChaosNetworkFaultsOneReply arms the probabilistic network points
// (the CI soak configuration arms them process-wide instead) and hammers
// the fleet: drops and delays on the coordinator→replica path must never
// cost a query its reply — every Predict returns exactly once, and the
// overwhelming majority still succeed via retry.
func TestFleetChaosNetworkFaultsOneReply(t *testing.T) {
	if !netFaultsArmed() {
		faults.NetDelayDuration = 2 * time.Millisecond
		if err := faults.Set("net-drop=p0.1,net-delay=p0.2"); err != nil {
			t.Fatal(err)
		}
		// Restore whatever the environment had armed (the soak's setting,
		// or nothing) so later tests see the configuration they expect.
		t.Cleanup(func() { _ = faults.Set(os.Getenv("MS_FAULTS")) })
	}
	coord, _, _ := liveFleet(t, 3, func(cfg *Config) {
		cfg.RetryMax = 5
		cfg.FailThreshold = 4
	})
	const total = 120
	ok, fail := drive(t, coord, total, 8)
	if ok+fail != total {
		t.Fatalf("reply contract broken: %d ok + %d failed != %d submitted", ok, fail, total)
	}
	if ok < total/2 {
		t.Fatalf("only %d/%d queries survived the network chaos; retries are not absorbing drops", ok, total)
	}
	if coord.Stats().Retries == 0 && faults.Fired(faults.NetDrop) > 0 {
		t.Fatal("drops fired but no retries recorded")
	}
}

// TestFleetHTTPSurface covers the coordinator's own endpoints: runtime
// join/leave over POST /replicas, the query path, and the fleet fields on
// /metrics and /healthz.
func TestFleetHTTPSurface(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; exact counter assertions are not deterministic")
	}
	coord, _, urls := liveFleet(t, 1, nil)
	_, extra := liveReplica(t)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Join the second replica at runtime.
	resp := post("/replicas", `{"op":"join","url":"`+extra.URL+`"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}

	// Query through the coordinator with the single-node wire format.
	body, _ := json.Marshal(server.PredictRequest{Input: inputVec(42)})
	resp = post("/predict", string(body))
	var out server.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Output) != 3 {
		t.Fatalf("predict through coordinator: status %d output %v", resp.StatusCode, out.Output)
	}

	// The query string reaches the replica: ?debug=1 through the coordinator
	// carries the stage breakdown, as it does against a replica directly.
	resp = post("/predict?debug=1", string(body))
	out = server.PredictResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Stages == nil {
		t.Fatalf("?debug=1 through coordinator: status %d stages %v", resp.StatusCode, out.Stages)
	}

	// Malformed input relays the replica's 400 — wrong length and, now that
	// the coordinator no longer parses the body itself, broken JSON alike.
	for _, bad := range []string{`{"input":[1,2]}`, `not json`} {
		resp = post("/predict", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad input %q through coordinator: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, w := range []string{
		"msfleet_forwarded_total 2",
		"msfleet_retries_total",
		"msfleet_hedges_total",
		"msfleet_ejections_total",
		"msfleet_rejoins_total",
		"msfleet_shed_total",
		`msfleet_replica_up{replica="` + urls[0] + `"} 1`,
		`msfleet_replica_routed_total{replica="` + urls[0] + `"}`,
		"msfleet_query_latency_seconds_count 2",
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("fleet metrics missing %q:\n%s", w, text)
		}
	}

	var health struct {
		Replicas int `json:"replicas"`
		Live     int `json:"live_replicas"`
	}
	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Replicas != 2 || health.Live != 2 {
		t.Fatalf("healthz %+v, want 2 replicas / 2 live", health)
	}

	// Leave at runtime; the member is tombstoned out of rotation.
	resp = post("/replicas", `{"op":"leave","url":"`+extra.URL+`"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Replicas != 1 || health.Live != 1 {
		t.Fatalf("healthz after leave %+v, want 1/1", health)
	}
}

// TestStopClosesReplicaConnections: a stopped coordinator leaves no
// keep-alive connection open on its replicas. Stop waits for the health loop
// (which may be mid-poll) and then closes the idle connections; before, a
// replica held the join's and the polls' idle connection until the
// transport's 90 s idle timeout.
func TestStopClosesReplicaConnections(t *testing.T) {
	var open atomic.Int64
	ts := httptest.NewUnstartedServer(fakeReplica(t, server.NewFakeClock(time.Unix(0, 0))).Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	coord, err := New(Config{SLO: 50 * time.Millisecond, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AddReplica(ts.URL); err != nil {
		t.Fatal(err)
	}
	if open.Load() == 0 {
		t.Fatal("no connection to the replica before Stop; the test cannot see a leak")
	}
	coord.Stop()
	deadline := time.Now().Add(time.Second)
	for open.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica still holds %d open connections 1 s after Stop", open.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaShutdownUnderPolling: a replica's graceful http.Server.Shutdown
// returns within a 2 s deadline while a coordinator polls its /state at the
// default interval (SLO/2). Shutdown closes the idle keep-alive connections
// and waits for the active ones; a poll that lands mid-drain must get its
// answer on a connection that then closes, not keep the server open.
func TestReplicaShutdownUnderPolling(t *testing.T) {
	var polls atomic.Int64
	h := fakeReplica(t, server.NewFakeClock(time.Unix(0, 0))).Handler()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/state" {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	coord, err := New(Config{SLO: 20 * time.Millisecond, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	if err := coord.AddReplica("http://" + ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// The join's fetch and two health-loop polls: the loop is running and
	// holds a keep-alive connection to the replica.
	waitFor(t, "health polls", func() bool { return polls.Load() >= 3 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown while polled: %v after %v", err, time.Since(start))
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
