package server

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
)

// testServerModel / testServerRates mirror testServer's fixture for tests
// that build their Config by hand (real clock, custom knobs).
func testServerModel() nn.Layer {
	return models.NewMLP(4, []int{8, 8}, 3, 4, rand.New(rand.NewSource(1)))
}

func testServerRates() slicing.RateList { return slicing.NewRateList(0.25, 4) }

// waitFired polls until the fault point has fired at least n times — the
// handshake telling a test a worker goroutine has actually reached an
// injected stall before the test advances the fake clock past the watchdog
// bound.
func waitFired(t *testing.T, p faults.Point, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for faults.Fired(p) < n {
		if time.Now().After(deadline) {
			t.Fatalf("fault %s fired %d times, want %d", p, faults.Fired(p), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosPanicIsolation: a panicking shard answers its own queries with
// ErrWorkerPanic and leaves the rest of the window — and the server —
// untouched.
func TestChaosPanicIsolation(t *testing.T) {
	defer faults.Reset()
	s, clk := testServer(t, nil)
	if err := faults.Enable(faults.WorkerPanic, "first1"); err != nil {
		t.Fatal(err)
	}
	// Two queries over two workers → two single-query shards; exactly one
	// panics.
	ch1, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := s.Submit(input(2))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	failed, answered := 0, 0
	for _, ch := range []<-chan Result{ch1, ch2} {
		res := <-ch
		switch {
		case errors.Is(res.Err, ErrWorkerPanic):
			failed++
			if res.Output != nil {
				t.Fatal("failed query carries an output")
			}
		case res.Err == nil && res.Output != nil:
			answered++
		default:
			t.Fatalf("unexpected result err=%v output=%v", res.Err, res.Output)
		}
	}
	if failed != 1 || answered != 1 {
		t.Fatalf("failed=%d answered=%d, want exactly one of each", failed, answered)
	}
	st := s.Stats()
	if st.WorkerPanics != 1 || st.FailedQueries != 1 {
		t.Fatalf("panics=%d failed=%d, want 1/1", st.WorkerPanics, st.FailedQueries)
	}
	if st.FaultsFired[string(faults.WorkerPanic)] != 1 {
		t.Fatalf("FaultsFired=%v, want worker-panic:1", st.FaultsFired)
	}

	// The pool survived: the next window serves normally.
	faults.Reset()
	ch3, err := s.Submit(input(3))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	if res := <-ch3; res.Err != nil || res.Output == nil {
		t.Fatalf("server did not recover after panic: %v", res.Err)
	}
}

// TestChaosWatchdogReplacesStuckShard: a shard stalled past the watchdog
// bound (8·SLO = 16 s here) is abandoned — its queries answered with
// ErrShardStuck, its worker replaced — and the server keeps serving with a
// whole pool.
func TestChaosWatchdogReplacesStuckShard(t *testing.T) {
	defer faults.Reset()
	s, clk := testServer(t, nil)
	if err := faults.Enable(faults.ShardStall, "first1"); err != nil {
		t.Fatal(err)
	}
	ch, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second) // window closes at t=1, shard dispatched and stalls
	waitFired(t, faults.ShardStall, 1)
	for i := 0; i < 15; i++ {
		clk.Tick(time.Second) // up to t=16: age 15s, under the bound
	}
	select {
	case res := <-ch:
		t.Fatalf("shard answered before the watchdog bound: %v", res.Err)
	default:
	}
	clk.Tick(time.Second) // t=17: age 16s ≥ 8·SLO → abandoned
	res := <-ch
	if !errors.Is(res.Err, ErrShardStuck) {
		t.Fatalf("stuck shard answered err=%v, want ErrShardStuck", res.Err)
	}
	st := s.Stats()
	if st.StuckShards != 1 || st.WorkersReplaced != 1 {
		t.Fatalf("stuck=%d replaced=%d, want 1/1", st.StuckShards, st.WorkersReplaced)
	}

	// Release the zombie goroutine and prove the replaced pool still serves.
	faults.Reset()
	ch2, err := s.Submit(input(2))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	if res := <-ch2; res.Err != nil || res.Output == nil {
		t.Fatalf("server did not recover after abandonment: %v", res.Err)
	}
}

// TestChaosCircuitBrownout: consecutive shard failures trip the circuit, an
// open circuit pins windows to the rate floor, and the circuit closes again
// once a shard succeeds and the backlog horizon drains.
func TestChaosCircuitBrownout(t *testing.T) {
	defer faults.Reset()
	s, clk := testServer(t, nil)
	if err := faults.Enable(faults.WorkerPanic, "on"); err != nil {
		t.Fatal(err)
	}
	// Three windows, one panicking shard each → three consecutive failures.
	for i := 0; i < 3; i++ {
		ch, err := s.Submit(input(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		clk.Tick(time.Second)
		if res := <-ch; !errors.Is(res.Err, ErrWorkerPanic) {
			t.Fatalf("window %d: err=%v, want ErrWorkerPanic", i, res.Err)
		}
	}
	if !s.CircuitOpen() {
		t.Fatal("circuit still closed after three consecutive shard failures")
	}
	faults.Disable(faults.WorkerPanic)

	// A single query would be served at rate 1.0 by the normal policy; the
	// open circuit pins it to the floor.
	ch, err := s.Submit(input(10))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	res := <-ch
	if res.Err != nil || res.Rate != 0.25 {
		t.Fatalf("pinned window served at rate %v (err=%v), want floor 0.25", res.Rate, res.Err)
	}
	st := s.Stats()
	if st.CircuitTrips != 1 || !st.CircuitOpen || st.CircuitPinnedWindows != 1 {
		t.Fatalf("trips=%d open=%v pinned=%d, want 1/true/1",
			st.CircuitTrips, st.CircuitOpen, st.CircuitPinnedWindows)
	}

	// The pinned shard succeeded and the horizon drains past the next close:
	// the circuit closes and full-rate service resumes.
	clk.Tick(time.Second)
	if s.CircuitOpen() {
		t.Fatal("circuit still open after a success and a drained horizon")
	}
	ch2, err := s.Submit(input(11))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	if res := <-ch2; res.Err != nil || res.Rate != 1.0 {
		t.Fatalf("recovered window served at rate %v (err=%v), want 1.0", res.Rate, res.Err)
	}
}

// TestChaosDropExpiredDeadline: with DropExpired set, a query whose SLO has
// already passed when a worker would start it is answered ErrExpired instead
// of computed late.
func TestChaosDropExpiredDeadline(t *testing.T) {
	defer faults.Reset()
	// The stall below is deliberate; it ends at t=4, long before the
	// watchdog's 8·SLO = 16 s bound.
	s, clk := testServer(t, func(c *Config) { c.DropExpired = true })
	if err := faults.Enable(faults.ShardStall, "first2"); err != nil {
		t.Fatal(err)
	}
	// Window 1: two queries → two shards wedge both workers.
	chA, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	chB, err := s.Submit(input(2))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	waitFired(t, faults.ShardStall, 2)
	// Window 2: one query that will rot in the shard queue past its SLO.
	chC, err := s.Submit(input(3))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second) // t=2: window 2 closes, no free worker
	clk.Tick(time.Second)
	clk.Tick(time.Second) // t=4: query C is 3s old, SLO is 2s
	faults.Disable(faults.ShardStall)

	// Every query aged past its deadline while the pool was wedged — the
	// stalled window's own queries included, since the expiry check runs at
	// the moment a worker would start computing. All are dropped, none
	// computed late.
	for _, ch := range []<-chan Result{chA, chB, chC} {
		res := <-ch
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("expired query answered err=%v, want ErrExpired", res.Err)
		}
	}
	if st := s.Stats(); st.ExpiredDropped != 3 {
		t.Fatalf("ExpiredDropped=%d, want 3", st.ExpiredDropped)
	}

	// A fresh query after the chaos is served normally.
	ch, err := s.Submit(input(4))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	if res := <-ch; res.Err != nil || res.Output == nil {
		t.Fatalf("server did not recover after expiry storm: %v", res.Err)
	}
}

// TestChaosShutdownSubmitRaceHammer: Submit racing Stop must either reject
// with ErrStopped/ErrOverloaded or deliver exactly one Result — never a hung
// channel.
func TestChaosShutdownSubmitRaceHammer(t *testing.T) {
	for round := 0; round < 8; round++ {
		s, err := New(Config{
			Model:       testServerModel(),
			Rates:       testServerRates(),
			InputShape:  []int{4},
			SLO:         10 * time.Millisecond,
			Workers:     2,
			QueueFactor: 64,
			SampleTime:  func(r float64) float64 { return 1e-6 },
		})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			chans []<-chan Result
			wg    sync.WaitGroup
		)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				x := input(seed)
				for {
					ch, err := s.Submit(x)
					switch {
					case err == nil:
						mu.Lock()
						chans = append(chans, ch)
						mu.Unlock()
					case errors.Is(err, ErrStopped):
						return
					case errors.Is(err, ErrOverloaded):
						// Fine: backpressure, try again.
					default:
						panic("unexpected Submit error: " + err.Error())
					}
					runtime.Gosched()
				}
			}(int64(g))
		}
		time.Sleep(5 * time.Millisecond)
		s.Stop()
		wg.Wait()
		for i, ch := range chans {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: accepted query %d/%d never answered", round, i, len(chans))
			}
		}
	}
}

// TestChaosSoakEveryFaultPoint drives a real-clock server through every
// injectable fault in turn and demands the one-reply invariant, recovery
// after Reset, and no leaked goroutines.
func TestChaosSoakEveryFaultPoint(t *testing.T) {
	defer faults.Reset()
	// shard-stall runs at a 5 ms SLO, so the watchdog's 8·SLO bound (40 ms)
	// falls well inside the 150 ms soak and must fire.
	points := []struct {
		point faults.Point
		mode  string
		slo   time.Duration
	}{
		{faults.WorkerPanic, "p0.3", 40 * time.Millisecond},
		{faults.ShardStall, "every4", 5 * time.Millisecond},
		{faults.SlowCompute, "p0.5", 40 * time.Millisecond},
		{faults.CalibrationSkew, "p0.5", 40 * time.Millisecond},
	}
	faults.SlowComputeDelay = 2 * time.Millisecond
	before := runtime.NumGoroutine()
	for _, tc := range points {
		faults.Reset()
		s, err := New(Config{
			Model:            testServerModel(),
			Rates:            testServerRates(),
			InputShape:       []int{4},
			SLO:              tc.slo,
			Workers:          2,
			QueueFactor:      64,
			CalibrationBatch: 2,
			SampleTime:       func(r float64) float64 { return 1e-5 },
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.point, err)
		}
		// Non-static EWMA so calibration-skew has something to corrupt.
		s.cal.alpha = ewmaAlpha
		if err := faults.Enable(tc.point, tc.mode); err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			chans []<-chan Result
			wg    sync.WaitGroup
		)
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				x := input(seed)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if ch, err := s.Submit(x); err == nil {
						mu.Lock()
						chans = append(chans, ch)
						mu.Unlock()
					}
					time.Sleep(time.Millisecond)
				}
			}(int64(g))
		}
		time.Sleep(150 * time.Millisecond)
		close(stop)
		wg.Wait()
		if tc.point == faults.ShardStall && s.Stats().StuckShards == 0 {
			t.Errorf("%s: the watchdog abandoned no shard", tc.point)
		}
		faults.Reset() // release any stalled shard the watchdog hasn't reached
		for i, ch := range chans {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: accepted query %d/%d never answered", tc.point, i, len(chans))
			}
		}
		// The server must still serve cleanly once the chaos stops.
		deadline := time.Now().Add(5 * time.Second)
		for {
			res, err := s.Predict(input(99))
			if err == nil && res.Output != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: server did not recover after faults.Reset: %v", tc.point, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		s.Stop()
	}
	// Everything spawned — workers, watchdog sweeps, zombies — must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
