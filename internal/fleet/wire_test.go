package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/server"
	"modelslicing/internal/serving"
)

// stubReplica is a replica reduced to its wire surface: /state reports a
// healthy idle server, /predict records the body and query string it was
// sent and then does whatever the test says.
type stubReplica struct {
	*httptest.Server
	mu      sync.Mutex
	bodies  [][]byte
	queries []string
}

func newStubReplica(t *testing.T, predict http.HandlerFunc) *stubReplica {
	t.Helper()
	state, err := json.Marshal(server.State{
		SLOms: 200, WindowS: 0.1, Headroom: 1, Rates: []float64{0.5, 1},
		SampleTimes: []server.RateTime{{Rate: 0.5, Seconds: 1e-4}, {Rate: 1, Seconds: 4e-4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &stubReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(state) })
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.bodies = append(s.bodies, body)
		s.queries = append(s.queries, r.URL.RawQuery)
		s.mu.Unlock()
		predict(w, r)
	})
	s.Server = httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func (s *stubReplica) received() ([][]byte, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.bodies...), append([]string(nil), s.queries...)
}

// stubFleet fronts the stubs with a coordinator whose health loop is dormant
// (a fake clock that is never ticked), so /predict is the only traffic.
func stubFleet(t *testing.T, mutate func(*Config), stubs ...*stubReplica) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		SLO:        200 * time.Millisecond,
		Clock:      server.NewFakeClock(time.Unix(0, 0)),
		RetryBase:  -1,
		HedgeAfter: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	for _, s := range stubs {
		if err := coord.AddReplica(s.URL); err != nil {
			t.Fatal(err)
		}
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	return coord, front
}

// An odd but valid spelling on each side: what arrives must be these bytes,
// not a re-encoding of what they mean.
const (
	oddRequest = "{ \"input\" :\n\t[1.0, 2e0,3.50 ,  -0.0],\n \"note\": \"kept\" }\n"
	oddReply   = "{\"output\": [0.10, 2.0e1],\"argmax\":1, \"rate\":1.0,\"latency_ms\":0.5,\"slo_miss\":false}"
)

func answerOdd(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, oddReply) }

func postOdd(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(oddRequest))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestFleetBytePassThrough: the body a replica receives is the body the
// client sent and the reply the client receives is the reply the replica
// wrote, byte for byte — on the first attempt, on a retry, and on both copies
// of a hedged query — and the query string rides along.
func TestFleetBytePassThrough(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; exact attempt counts are not deterministic")
	}
	wantBodies := func(t *testing.T, s *stubReplica, n int, query string) {
		t.Helper()
		waitFor(t, "the replica to be sent the query", func() bool { b, _ := s.received(); return len(b) >= n })
		bodies, queries := s.received()
		if len(bodies) != n {
			t.Fatalf("replica was sent %d queries, want %d", len(bodies), n)
		}
		for i := range bodies {
			if string(bodies[i]) != oddRequest || queries[i] != query {
				t.Fatalf("replica received %q?%s, client sent %q?%s", bodies[i], queries[i], oddRequest, query)
			}
		}
	}

	t.Run("first attempt", func(t *testing.T) {
		a := newStubReplica(t, answerOdd)
		_, front := stubFleet(t, nil, a)
		code, hdr, body := postOdd(t, front.URL+"/predict?debug=1&x=%20y")
		if code != http.StatusOK || body != oddReply || hdr.Get("Content-Type") != "application/json" {
			t.Fatalf("client got %d %q (%s), replica wrote %q", code, body, hdr.Get("Content-Type"), oddReply)
		}
		wantBodies(t, a, 1, "debug=1&x=%20y")
	})

	t.Run("retry", func(t *testing.T) {
		a := newStubReplica(t, func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "shard panicked", http.StatusInternalServerError)
		})
		b := newStubReplica(t, answerOdd)
		coord, front := stubFleet(t, nil, a, b)
		if code, _, body := postOdd(t, front.URL+"/predict"); code != http.StatusOK || body != oddReply {
			t.Fatalf("client got %d %q", code, body)
		}
		wantBodies(t, a, 1, "")
		wantBodies(t, b, 1, "")
		if st := coord.Stats(); st.Retries != 1 || st.Forwarded != 1 {
			t.Fatalf("retries=%d forwarded=%d, want 1/1", st.Retries, st.Forwarded)
		}
	})

	t.Run("hedge", func(t *testing.T) {
		// The primary reads the query, then sits on it until the coordinator
		// cancels the losing copy.
		a := newStubReplica(t, func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
		b := newStubReplica(t, answerOdd)
		coord, front := stubFleet(t, func(c *Config) { c.HedgeAfter = 20 * time.Millisecond }, a, b)
		if code, _, body := postOdd(t, front.URL+"/predict?debug=1"); code != http.StatusOK || body != oddReply {
			t.Fatalf("client got %d %q", code, body)
		}
		wantBodies(t, a, 1, "debug=1")
		wantBodies(t, b, 1, "debug=1")
		if st := coord.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
			t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
		}
	})
}

// TestFleetPredictBodyTooLarge: the coordinator caps a request at the same
// 8 MiB it allows a reply, answers 413, and bothers no replica with it.
func TestFleetPredictBodyTooLarge(t *testing.T) {
	a := newStubReplica(t, answerOdd)
	_, front := stubFleet(t, nil, a)
	body := `{"input":[` + strings.Repeat("0.25,", maxBodyBytes/5) + `1]}`
	resp, err := http.Post(front.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if bodies, _ := a.received(); len(bodies) != 0 {
		t.Fatalf("an oversized query reached a replica (%d bytes)", len(bodies[0]))
	}
}

// TestFleetNonFiniteOutput: a query whose output overflows fails the same way
// on every replica. Each says so with a 500, the coordinator tries each once
// — no "bad reply" retry storm over empty 200s — and answers 502 with the
// cause.
func TestFleetNonFiniteOutput(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; exact counter assertions are not deterministic")
	}
	coord, _, _ := liveFleet(t, 2, nil)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Post(front.URL+"/predict", "application/json",
		strings.NewReader(`{"input":[1e308,-1e308,1e308,-1e308]}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(msg), "not finite") {
		t.Fatalf("status %d body %s, want 502 naming the non-finite output", resp.StatusCode, msg)
	}
	st := coord.Stats()
	if st.Retries != 2 || st.Forwarded != 0 {
		t.Fatalf("retries=%d forwarded=%d, want one retry per replica tried (2) and no answer", st.Retries, st.Forwarded)
	}
	for _, r := range st.Replicas {
		if r.Routed != 1 {
			t.Fatalf("replica %s was sent the query %d times, want once", r.URL, r.Routed)
		}
	}
}

// TestFleetRelaysRetryAfter: a saturated fleet's 503 carries the soonest
// Retry-After its replicas derived from their horizons, not a constant; a
// fleet with no replica to ask says 1.
func TestFleetRelaysRetryAfter(t *testing.T) {
	if netFaultsArmed() {
		t.Skip("network fault injection armed; a dropped attempt is not a 503")
	}
	shed := func(secs string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", secs)
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		}
	}
	_, front := stubFleet(t, nil, newStubReplica(t, shed("7")), newStubReplica(t, shed("3")), newStubReplica(t, shed("x")))
	code, hdr, body := postOdd(t, front.URL+"/predict")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "3" {
		t.Fatalf("status %d Retry-After %q (%s), want 503 with the soonest replica hint 3", code, hdr.Get("Retry-After"), body)
	}
	_, empty := stubFleet(t, nil)
	if code, hdr, _ := postOdd(t, empty.URL+"/predict"); code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" {
		t.Fatalf("empty fleet: status %d Retry-After %q, want 503 / 1", code, hdr.Get("Retry-After"))
	}
}

// TestHedgeDelayCached: the adaptive hedge delay is recomputed from the
// latency histogram at most once per HealthEvery of clock time.
func TestHedgeDelayCached(t *testing.T) {
	clk := server.NewFakeClock(time.Unix(0, 0))
	coord, err := New(Config{SLO: 100 * time.Millisecond, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	if d := coord.hedgeDelay(); d != 200*time.Millisecond {
		t.Fatalf("cold hedge delay %v, want 2·SLO", d)
	}
	for i := 0; i < 32; i++ {
		coord.metrics.latency.Observe(time.Millisecond)
	}
	clk.Advance(49 * time.Millisecond)
	if d := coord.hedgeDelay(); d != 200*time.Millisecond {
		t.Fatalf("hedge delay moved to %v inside one health interval", d)
	}
	clk.Advance(time.Millisecond)
	want := coord.metrics.latency.Snapshot().Quantile(0.95)
	if d := coord.hedgeDelay(); d != want || d >= 200*time.Millisecond {
		t.Fatalf("hedge delay %v after a health interval, want the p95 %v", d, want)
	}
}

// TestReplicaSetTable: the cost curve follows the polled table, and an
// unchanged table is not rebuilt.
func TestReplicaSetTable(t *testing.T) {
	r := &replica{model: &serving.ReplicaModel{}}
	table := []server.RateTime{{Rate: 0.5, Seconds: 1}, {Rate: 1, Seconds: 4}}
	r.setTable(table)
	if got := r.model.Policy.SampleTime(1); got != 4 {
		t.Fatalf("t(1) = %g, want 4", got)
	}
	table[1].Seconds = 5 // the caller's slice is scratch; the model must not alias it
	if got := r.model.Policy.SampleTime(1); got != 4 {
		t.Fatalf("t(1) = %g after the caller reused its slice, want 4", got)
	}
	r.setTable(table)
	if got := r.model.Policy.SampleTime(1); got != 5 {
		t.Fatalf("t(1) = %g after the table moved, want 5", got)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { r.setTable(table) }); n != 0 {
			t.Fatalf("an unchanged table costs %v allocations per poll, want 0", n)
		}
	}
}

// TestPredictBytesAllocs is the allocation gate of the coordinator hop: one
// query through predictBytes to a loopback replica and back, hedging armed as
// in the default configuration. What is counted is net/http's client and
// server and the stub's ReadAll (the bulk, and not ours to shrink) plus the
// hop's own context, timer, channel and request: 115 when written, 105 once
// each attempt had one context and a pre-parsed URL. A JSON decode or encode
// of the 768-float body anywhere on the hop adds twenty or more.
func TestPredictBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool sheds items)")
	}
	if netFaultsArmed() {
		t.Skip("network fault injection armed; retries allocate")
	}
	a := newStubReplica(t, answerOdd)
	coord, _ := stubFleet(t, func(c *Config) { c.HedgeAfter = 0 }, a)
	in := make([]float64, 768)
	for i := range in {
		in[i] = float64(i) / 7
	}
	raw, _ := json.Marshal(server.PredictRequest{Input: in})
	one := func() {
		reply, err := coord.predictBytes(context.Background(), raw, "")
		if err != nil {
			t.Fatal(err)
		}
		if string(reply) != oddReply {
			t.Fatalf("reply %q", reply)
		}
	}
	one() // open the keep-alive connection
	n := testing.AllocsPerRun(200, one)
	t.Logf("predictBytes: %v allocations per query", n)
	if n > 107 {
		t.Errorf("predictBytes allocates %v times per query, want ≤ 107", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = coord.hedgeDelay() }); n != 0 {
		t.Errorf("hedgeDelay allocates %v times per query, want 0", n)
	}
}

// TestStatePollAllocs is the allocation gate of one health poll: GET /state
// through a loopback liveReplica and back, both sides counted, the reply
// decoded into the replica's reused statePoll. Like the hop it is mostly
// net/http's: 86 when written, 83 once the request was built from a
// pre-parsed URL. The health cadence sets how many of these a query pays.
func TestStatePollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool sheds items)")
	}
	if netFaultsArmed() {
		t.Skip("network fault injection armed; a dropped poll allocates differently")
	}
	_, ts := liveReplica(t)
	coord, err := New(Config{SLO: 200 * time.Millisecond, Clock: server.NewFakeClock(time.Unix(0, 0)), HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	if err := coord.AddReplica(ts.URL); err != nil {
		t.Fatal(err)
	}
	r := coord.replicas[0]
	n := testing.AllocsPerRun(200, func() {
		if err := coord.fetchState(context.Background(), r.stateURL, &r.polled); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fetchState: %v allocations per poll", n)
	if n > 85 {
		t.Errorf("a /state poll allocates %v times, want ≤ 85", n)
	}
}
