package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/server"
)

// stateReplica is a replica reduced to /state: it reports whatever State the
// test last set. It answers no /predict.
type stateReplica struct {
	*httptest.Server
	mu    sync.Mutex
	state server.State
}

func newStateReplica(t *testing.T) *stateReplica {
	t.Helper()
	s := &stateReplica{state: server.State{
		SLOms: 200, WindowS: 0.1, Headroom: 1, Rates: []float64{0.5, 1},
		SampleTimes: []server.RateTime{{Rate: 0.5, Seconds: 1e-4}, {Rate: 1, Seconds: 4e-4}},
	}}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/state" {
			http.NotFound(w, r)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		_ = json.NewEncoder(w).Encode(s.state)
	}))
	t.Cleanup(s.Close)
	return s
}

func (s *stateReplica) set(f func(*server.State)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.state)
}

// cadenceFleet fronts one stateReplica with a coordinator on a fake clock:
// each Tick runs one health tick to completion (AckTick), so the poll
// cadence is asserted tick by tick without a wall-clock sleep.
// FailThreshold 3 caps a quiet replica at one poll every 3 ticks.
func cadenceFleet(t *testing.T) (*Coordinator, *server.FakeClock, *Transport, *stateReplica) {
	t.Helper()
	if netFaultsArmed() {
		t.Skip("network fault injection armed; the poll cadence follows failures")
	}
	s := newStateReplica(t)
	clk := server.NewFakeClock(time.Unix(0, 0))
	tr := &Transport{}
	c, err := New(Config{
		SLO:           200 * time.Millisecond,
		Clock:         clk,
		Transport:     tr,
		FailThreshold: 3,
		RejoinAfter:   2,
		RetryBase:     -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AddReplica(s.URL); err != nil {
		t.Fatal(err)
	}
	return c, clk, tr, s
}

// pollTicks runs n health ticks and returns the ones (numbered from first)
// on which the replica was polled.
func pollTicks(c *Coordinator, clk *server.FakeClock, first, n int) []int {
	var polled []int
	for k := first; k < first+n; k++ {
		before := c.Stats().HealthPolls
		clk.Tick(c.cfg.HealthEvery)
		if c.Stats().HealthPolls != before {
			polled = append(polled, k)
		}
	}
	return polled
}

func wantPolls(t *testing.T, what string, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: polled on ticks %v, want %v", what, got, want)
	}
}

// TestHealthPollCadenceStretchesWhileQuiet: a replica whose polls bring no
// news is polled one tick later each time — after 1, then 2, then 3 ticks —
// and then every FailThreshold ticks.
func TestHealthPollCadenceStretchesWhileQuiet(t *testing.T) {
	c, clk, _, _ := cadenceFleet(t)
	wantPolls(t, "quiet replica", pollTicks(c, clk, 1, 15), []int{1, 3, 6, 9, 12, 15})
	if n := c.Stats().HealthPolls; n != 6 {
		t.Fatalf("Stats.HealthPolls = %d, want the 6 polls sent", n)
	}
}

// TestHealthPollCadenceNewsResets: a poll that finds a moved t(r) table or a
// changed circuit penalty installs it and puts the replica back on every
// tick, from where it stretches again.
func TestHealthPollCadenceNewsResets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*server.State)
		check  func(*Coordinator) bool
	}{
		{"table", func(st *server.State) {
			st.SampleTimes = []server.RateTime{{Rate: 0.5, Seconds: 2e-4}, {Rate: 1, Seconds: 8e-4}}
		}, func(c *Coordinator) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.replicas[0].model.Policy.SampleTime(1) == 8e-4
		}},
		{"penalty", func(st *server.State) { st.CircuitOpen = true }, func(c *Coordinator) bool {
			return c.Replicas()[0].Penalized
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, clk, _, s := cadenceFleet(t)
			wantPolls(t, "before the change", pollTicks(c, clk, 1, 6), []int{1, 3, 6})
			s.set(tc.change)
			wantPolls(t, "after the change", pollTicks(c, clk, 7, 9), []int{9, 10, 12, 15})
			if !tc.check(c) {
				t.Fatalf("the %s change was not installed", tc.name)
			}
		})
	}
}

// TestHealthPollCadenceFailureResets: a failed poll, or a transport failure
// on a forwarded query, puts a stretched replica back on every tick.
func TestHealthPollCadenceFailureResets(t *testing.T) {
	t.Run("poll", func(t *testing.T) {
		c, clk, tr, s := cadenceFleet(t)
		wantPolls(t, "before the failure", pollTicks(c, clk, 1, 6), []int{1, 3, 6})
		tr.SetDown(hostOf(s.URL), true)
		wantPolls(t, "failing", pollTicks(c, clk, 7, 3), []int{9})
		if f := c.Replicas()[0].ConsecFails; f != 1 {
			t.Fatalf("ConsecFails = %d after one failed poll, want 1", f)
		}
		tr.SetDown(hostOf(s.URL), false)
		wantPolls(t, "after the failure", pollTicks(c, clk, 10, 6), []int{10, 12, 15})
	})
	t.Run("forwarded", func(t *testing.T) {
		c, clk, tr, s := cadenceFleet(t)
		wantPolls(t, "before the failure", pollTicks(c, clk, 1, 6), []int{1, 3, 6})
		tr.SetDown(hostOf(s.URL), true)
		if _, err := c.Predict(context.Background(), inputVec(1)); err == nil {
			t.Fatal("a query to a down replica succeeded")
		}
		tr.SetDown(hostOf(s.URL), false)
		wantPolls(t, "after the failure", pollTicks(c, clk, 7, 6), []int{7, 9, 12})
	})
}

// TestHealthPollCadenceEjectRejoin: a replica that dies right after a poll at
// the stretched cap, and gets no traffic, is ejected on the 2·FailThreshold−1
// = 5th tick — one stretched wait of 3, then a failed poll every tick. While
// ejected it is polled every tick, and it rejoins after RejoinAfter = 2
// successful polls.
func TestHealthPollCadenceEjectRejoin(t *testing.T) {
	c, clk, tr, s := cadenceFleet(t)
	wantPolls(t, "before the death", pollTicks(c, clk, 1, 6), []int{1, 3, 6})
	tr.SetDown(hostOf(s.URL), true)
	wantPolls(t, "dying", pollTicks(c, clk, 7, 4), []int{9, 10})
	if c.Replicas()[0].Ejected {
		t.Fatal("ejected after 4 ticks and two failed polls, want 3 failures first")
	}
	wantPolls(t, "dying", pollTicks(c, clk, 11, 1), []int{11})
	if st := c.Replicas()[0]; !st.Ejected || st.Ejections != 1 {
		t.Fatalf("replica %+v 5 ticks after its death, want ejected once", st)
	}
	wantPolls(t, "ejected and down", pollTicks(c, clk, 12, 3), []int{12, 13, 14})
	tr.SetDown(hostOf(s.URL), false)
	wantPolls(t, "ejected and back", pollTicks(c, clk, 15, 1), []int{15})
	if !c.Replicas()[0].Ejected {
		t.Fatal("rejoined after one successful poll, want RejoinAfter = 2")
	}
	wantPolls(t, "ejected and back", pollTicks(c, clk, 16, 1), []int{16})
	if st := c.Replicas()[0]; st.Ejected || st.Rejoins != 1 {
		t.Fatalf("replica %+v after two successful polls, want rejoined once", st)
	}
	wantPolls(t, "rejoined", pollTicks(c, clk, 17, 6), []int{17, 19, 22})
}
