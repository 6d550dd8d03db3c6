package fleet

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/models"
	"modelslicing/internal/server"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
)

// netFaultsArmed reports whether the process-wide network chaos points are
// on (the CI soak arms them via MS_FAULTS). Determinism-pinning tests skip
// then; the robustness tests are exactly what the soak exercises.
func netFaultsArmed() bool {
	return faults.Active(faults.NetDrop) || faults.Active(faults.NetDelay) ||
		faults.Active(faults.ReplicaDown)
}

// TestNewRejectsMalformedConfig: a non-positive SLO is refused with an error
// naming the field.
func TestNewRejectsMalformedConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"SLO", Config{}},
	} {
		c, err := New(tc.cfg)
		if err == nil {
			c.Stop()
			t.Errorf("%s: New accepted %+v", tc.field, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
}

// TestJoinTakesReplicaHeadroom: the coordinator models each replica with the
// headroom its /state reports, and refuses a join whose headroom is outside
// (0, 1] — missing (0), negative, above 1, or a number no float64 holds —
// with an error naming the field, leaving the replica out of the fleet.
func TestJoinTakesReplicaHeadroom(t *testing.T) {
	good, err := json.Marshal(server.State{SLOms: 200, WindowS: 0.1, Headroom: 1, Rates: []float64{1},
		SampleTimes: []server.RateTime{{Rate: 1, Seconds: 1e-4}}})
	if err != nil {
		t.Fatal(err)
	}
	replicaReporting := func(headroom string) string {
		body := strings.Replace(string(good), `"headroom":1`, `"headroom":`+headroom, 1)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	c, err := New(Config{SLO: 200 * time.Millisecond, Clock: server.NewFakeClock(time.Unix(0, 0)), RetryBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, h := range []string{"0", "-0.5", "1.5", "1e999"} {
		err := c.AddReplica(replicaReporting(h))
		if err == nil || !strings.Contains(err.Error(), "headroom") {
			t.Errorf("headroom %s: join error %v, want one naming the headroom", h, err)
		}
	}
	if err := c.AddReplica(replicaReporting("0.5")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.cluster.Replicas); n != 1 {
		t.Fatalf("%d replicas joined, want only the valid one", n)
	}
	if h := c.cluster.Replicas[0].Headroom; h != 0.5 {
		t.Fatalf("replica modeled at headroom %v, want its reported 0.5", h)
	}
}

func inputVec(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 4)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// fakeReplica builds one deterministic replica over a tiny MLP: FakeClock
// windows, pinned t(r) = r² against a 1 s window (the same arithmetic the
// single-node lockstep tests pin), admission wide open so the coordinator's
// routing is the only throttle.
func fakeReplica(t *testing.T, clk server.Clock) *server.Server {
	t.Helper()
	return fakeReplicaT(t, clk, func(r float64) float64 { return r * r })
}

// fakeReplicaT is fakeReplica with an explicit cost curve — the lever the
// heterogeneous-fleet tests pull to give replicas different hardware.
func fakeReplicaT(t *testing.T, clk server.Clock, sampleTime func(float64) float64) *server.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	s, err := server.New(server.Config{
		Model:             models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:             slicing.NewRateList(0.25, 4),
		InputShape:        []int{4},
		SLO:               2 * time.Second,
		Workers:           2,
		Clock:             clk,
		SampleTime:        sampleTime,
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// TestFleetChaosLockstep is the cluster drift guard: N fake-clock replicas
// behind a live coordinator versus the clock-free fleet simulation, driven
// with one arrival trace. Per window it pins (a) how many queries the
// coordinator routed to each replica and (b) the rate every reply was served
// at — the replicas take their own Equation-3 decisions, so agreement means
// the coordinator's remote model and N independent schedulers reproduce
// serving.SimulateFleet exactly.
func TestFleetChaosLockstep(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; lockstep determinism is not expected")
	}
	const n = 3
	rates := slicing.NewRateList(0.25, 4)
	// Small windows spread one query per replica; 20 and 40 fill replicas to
	// their window budget; 60 saturates the whole fleet (one replica's batch
	// overruns → SLO violations), and the 9 right behind it lands while that
	// overrun is still draining → a backlog-degraded window.
	arrivals := []int{3, 20, 1, 40, 0, 5, 2, 60, 9, 0, 16, 2}
	sim := serving.SimulateFleet(serving.Config{LatencySLO: 2, FullSampleTime: 1, Rates: rates}, n, arrivals)

	base := time.Unix(0, 0)
	replicas := make([]*server.Server, n)
	clocks := make([]*server.FakeClock, n)
	replicaURLs := make([]string, n)
	for i := range replicas {
		clocks[i] = server.NewFakeClock(base)
		replicas[i] = fakeReplica(t, clocks[i])
		ts := httptest.NewServer(replicas[i].Handler())
		t.Cleanup(ts.Close)
		replicaURLs[i] = ts.URL
	}

	cclk := server.NewFakeClock(base)
	coord, err := New(Config{
		SLO:        2 * time.Second,
		Clock:      cclk,
		HedgeAfter: -1, // wall-time hedging has no place in a frozen-clock run
		RetryBase:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	for _, u := range replicaURLs {
		if err := coord.AddReplica(u); err != nil {
			t.Fatal(err)
		}
	}

	window := time.Second
	for k, nq := range arrivals {
		routedBefore := routedCounts(coord)
		results := make(chan float64, nq)
		for j := 0; j < nq; j++ {
			go func(seed int64) {
				resp, err := coord.Predict(context.Background(), inputVec(seed))
				if err != nil {
					t.Errorf("window %d: predict: %v", k, err)
					results <- -1
					return
				}
				results <- resp.Rate
			}(int64(100*k + j))
		}
		// Every query must be booked and accepted by its replica before the
		// window may close.
		waitFor(t, "window submissions to land", func() bool {
			total := 0
			for _, r := range replicas {
				total += r.QueueDepth()
			}
			return total == nq
		})
		routedNow := routedCounts(coord)
		for i := range routedNow {
			got := routedNow[i] - routedBefore[i]
			if want := int64(sim.Ticks[k].Routed[i]); got != want {
				t.Fatalf("window %d replica %d: coordinator routed %d, simulation %d",
					k, i, got, want)
			}
		}
		cclk.Advance(window)
		for i := range clocks {
			clocks[i].Tick(window)
		}
		for i := range replicas {
			idx := i
			waitFor(t, "replica window close", func() bool {
				return replicas[idx].Stats().Windows == int64(k+1)
			})
		}
		var gotRates []float64
		for j := 0; j < nq; j++ {
			gotRates = append(gotRates, <-results)
		}
		var wantRates []float64
		for i, d := range sim.Ticks[k].Decisions {
			for q := 0; q < sim.Ticks[k].Routed[i]; q++ {
				wantRates = append(wantRates, d.Rate)
			}
		}
		sort.Float64s(gotRates)
		sort.Float64s(wantRates)
		if len(gotRates) != len(wantRates) {
			t.Fatalf("window %d: %d replies, want %d", k, len(gotRates), len(wantRates))
		}
		for j := range gotRates {
			if gotRates[j] != wantRates[j] {
				t.Fatalf("window %d: served rates %v, simulation %v", k, gotRates, wantRates)
			}
		}
	}

	// The trace must actually have exercised saturation and skew.
	if sim.SLOViolations == 0 || sim.DegradedWindows == 0 {
		t.Fatalf("trace too tame: %d violations, %d degraded", sim.SLOViolations, sim.DegradedWindows)
	}
	if st := coord.Stats(); st.Retries != 0 || st.Hedges != 0 || st.Shed != 0 {
		t.Fatalf("lockstep run saw retries=%d hedges=%d shed=%d; decisions are not comparable",
			st.Retries, st.Hedges, st.Shed)
	}
}

// TestFleetPrefersFasterReplica pins heterogeneous-fleet routing: two
// replicas with different calibrated cost curves — slow t(r) = 2r² (joined
// first, so index tie-breaks cannot explain a preference for the other),
// fast t(r) = r²/4 — start with equal (empty) backlog. The coordinator must
// route to the fast replica because it admits the query at a higher rate,
// keep feeding it while its admitted rate stays ahead, and spill to the slow
// replica exactly when the fast one's growing batch degrades its rate down
// to parity.
func TestFleetPrefersFasterReplica(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; lockstep determinism is not expected")
	}
	base := time.Unix(0, 0)
	slowClk, fastClk := server.NewFakeClock(base), server.NewFakeClock(base)
	slow := fakeReplicaT(t, slowClk, func(r float64) float64 { return 2 * r * r })
	fast := fakeReplicaT(t, fastClk, func(r float64) float64 { return r * r / 4 })
	slowTS := httptest.NewServer(slow.Handler())
	fastTS := httptest.NewServer(fast.Handler())
	t.Cleanup(slowTS.Close)
	t.Cleanup(fastTS.Close)

	coord, err := New(Config{
		SLO:        2 * time.Second,
		Clock:      server.NewFakeClock(base),
		HedgeAfter: -1,
		RetryBase:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	for _, u := range []string{slowTS.URL, fastTS.URL} {
		if err := coord.AddReplica(u); err != nil {
			t.Fatal(err)
		}
	}

	// All 8 queries arrive in one 1 s routing window. The fast replica admits
	// batch k at the largest rate with k·r²/4 ≤ 1 (rate 1.0 through k=4, 0.75
	// through k=7); the slow replica offers rate 0.5 from its first query
	// (2r² ≤ 1 ⇒ r ≤ 0.707). Only at the 8th query does the fast replica's
	// admitted rate fall to 0.5 — a tie, which keeps the earlier index.
	results := make(chan float64, 8)
	submit := func(seed int64) {
		go func() {
			resp, err := coord.Predict(context.Background(), inputVec(seed))
			if err != nil {
				t.Errorf("predict: %v", err)
				results <- -1
				return
			}
			results <- resp.Rate
		}()
	}
	submit(1)
	waitFor(t, "first query to land", func() bool {
		return slow.QueueDepth()+fast.QueueDepth() == 1
	})
	if got := routedCounts(coord); got[0] != 0 || got[1] != 1 {
		t.Fatalf("first query at equal backlog routed %v, want the faster replica [0 1]", got)
	}
	for seed := int64(2); seed <= 8; seed++ {
		submit(seed)
		waitFor(t, "query to land", func() bool {
			return slow.QueueDepth()+fast.QueueDepth() == int(seed)
		})
	}
	if got := routedCounts(coord); got[0] != 1 || got[1] != 7 {
		t.Fatalf("routed %v, want [1 7]: fast replica absorbs queries until its rate degrades to the slow one's", got)
	}

	// Close the window everywhere and check the served rates match the
	// decisions the routing predicted: seven at 0.75 on fast, one at 0.5 on
	// slow.
	slowClk.Tick(time.Second)
	fastClk.Tick(time.Second)
	var rates []float64
	for i := 0; i < 8; i++ {
		rates = append(rates, <-results)
	}
	sort.Float64s(rates)
	want := []float64{0.5, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("served rates %v, want %v", rates, want)
		}
	}
}

func routedCounts(c *Coordinator) []int64 {
	rs := c.Replicas()
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Routed
	}
	return out
}
