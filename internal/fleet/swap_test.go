package fleet

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/nn"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
)

// sigLayer is a model whose output is sig on every class at every rate —
// all weights zero, final bias sig — so a reply reveals which model served
// it (same trick as the single-node swap tests).
func sigLayer(sig float64) nn.Layer {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential(
		nn.NewDense(4, 8, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(8, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	params := m.Params()
	for _, p := range params {
		p.Value.Zero()
	}
	bias := params[len(params)-1]
	for i := range bias.Value.Data {
		bias.Value.Data[i] = sig
	}
	return m
}

// swappableReplica is a real-clock replica serving sigLayer(oldSig) whose
// SwapSource promotes to sigLayer(newSig) at the given identity.
func swappableReplica(t *testing.T, oldSig, newSig float64, info server.ModelInfo) *server.Server {
	t.Helper()
	rates := slicing.NewRateList(0.25, 4)
	s, err := server.New(server.Config{
		Model:             sigLayer(oldSig),
		Rates:             rates,
		InputShape:        []int{4},
		SLO:               50 * time.Millisecond,
		Workers:           2,
		SampleTime:        func(r float64) float64 { return 1e-6 * r * r },
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
		ModelInfo:         server.ModelInfo{Epoch: 1},
		SwapSource: func() (*slicing.Shared, server.ModelInfo, error) {
			return slicing.NewShared(sigLayer(newSig), rates), info, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestFleetRollingSwap drives a fleet-wide model swap through SwapAll: every
// live member is promoted one at a time, each promotion health-gated on the
// replica's own /state reporting the new identity, and queries routed after
// the roll are served by the new weights on every replica.
func TestFleetRollingSwap(t *testing.T) {
	const sigA, sigB = 1.0, 2.0
	info := server.ModelInfo{Epoch: 9, CRC: 0xabad1dea, Path: "b.ckpt"}
	var replicas []*server.Server
	var urls []string
	for i := 0; i < 2; i++ {
		s := swappableReplica(t, sigA, sigB, info)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		replicas = append(replicas, s)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Config{SLO: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	for _, u := range urls {
		if err := coord.AddReplica(u); err != nil {
			t.Fatal(err)
		}
	}

	results, err := coord.SwapAll(context.Background())
	if err != nil {
		t.Fatalf("SwapAll: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("promoted %d replicas, want 2: %+v", len(results), results)
	}
	for i, res := range results {
		if res.URL != urls[i] {
			t.Fatalf("promotion %d hit %s; the roll must follow join order (%s)", i, res.URL, urls[i])
		}
		if res.Epoch != 9 || res.CRC != "abad1dea" {
			t.Fatalf("promotion %d reports epoch %d crc %s, want 9/abad1dea", i, res.Epoch, res.CRC)
		}
	}
	if got := coord.Stats().Swaps; got != 2 {
		t.Fatalf("coordinator counted %d swaps, want 2", got)
	}
	for i, s := range replicas {
		st := s.State()
		if st.ModelEpoch != 9 || st.Swaps != 1 {
			t.Fatalf("replica %d reports epoch %d swaps %d after the roll, want 9/1", i, st.ModelEpoch, st.Swaps)
		}
	}
	// Post-roll traffic lands on the new weights wherever it is routed.
	for seed := int64(0); seed < 4; seed++ {
		resp, err := coord.Predict(context.Background(), inputVec(seed))
		if err != nil {
			t.Fatalf("post-swap predict: %v", err)
		}
		if resp.Output[0] != sigB {
			t.Fatalf("post-swap query served output %v, want new-model signature %v", resp.Output[0], sigB)
		}
	}

	// A member that cannot swap aborts the roll right there: members earlier
	// in join order are (re-)promoted, the failing one and everything after
	// it stay put, and the error says where it stopped.
	bare, err := server.New(server.Config{
		Model:      sigLayer(sigA),
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{4},
		SLO:        50 * time.Millisecond,
		Workers:    1,
		SampleTime: func(r float64) float64 { return 1e-6 * r * r },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Stop)
	bareTS := httptest.NewServer(bare.Handler())
	t.Cleanup(bareTS.Close)
	if err := coord.AddReplica(bareTS.URL); err != nil {
		t.Fatal(err)
	}
	results, err = coord.SwapAll(context.Background())
	if err == nil {
		t.Fatal("SwapAll succeeded with a member that has no swap source")
	}
	if !strings.Contains(err.Error(), bareTS.URL) {
		t.Fatalf("abort error %q does not name the failing replica", err)
	}
	if len(results) != 2 {
		t.Fatalf("aborted roll promoted %d replicas, want the 2 ahead of the failure", len(results))
	}
}

// lossyTransport loses the first `lose` requests to every (method, path) it
// carries before any byte moves, then delivers the rest.
type lossyTransport struct {
	lose int
	mu   sync.Mutex
	seen map[string]int
}

func (l *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + req.URL.Path
	l.mu.Lock()
	if l.seen == nil {
		l.seen = make(map[string]int)
	}
	l.seen[key]++
	n := l.seen[key]
	l.mu.Unlock()
	if n <= l.lose {
		return nil, errors.New("injected: request lost")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestControlPlaneRetriesLostRequests pins the control plane's bounded
// retry: a join's /state GET and a roll's swap POST lost in transit are sent
// again (the soak configuration drops 5% of requests), the swap still runs
// once on the replica, and a replica that stays unreachable fails the join
// after exactly 1+RetryMax attempts.
func TestControlPlaneRetriesLostRequests(t *testing.T) {
	info := server.ModelInfo{Epoch: 3, CRC: 0xfeed, Path: "b.ckpt"}
	s := swappableReplica(t, 1, 2, info)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	lossy := &lossyTransport{lose: 2}
	coord, err := New(Config{SLO: 50 * time.Millisecond, Transport: lossy, RetryMax: 2, RetryBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	if err := coord.AddReplica(ts.URL); err != nil {
		t.Fatalf("join with two lost /state requests: %v", err)
	}
	results, err := coord.SwapAll(context.Background())
	if err != nil || len(results) != 1 {
		t.Fatalf("SwapAll with two lost swap POSTs = %+v, %v; want one promotion", results, err)
	}
	if st := s.State(); st.ModelEpoch != 3 || st.Swaps != 1 {
		t.Fatalf("replica reports epoch %d swaps %d, want 3/1", st.ModelEpoch, st.Swaps)
	}

	dead := &lossyTransport{lose: 1 << 30}
	coord2, err := New(Config{SLO: 50 * time.Millisecond, Transport: dead, RetryMax: 2, RetryBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord2.Stop)
	if err := coord2.AddReplica(ts.URL); err == nil {
		t.Fatal("join succeeded over a transport that loses every request")
	}
	if got := dead.seen["GET /state"]; got != 3 {
		t.Fatalf("unreachable join made %d attempts, want 1+RetryMax = 3", got)
	}
}
