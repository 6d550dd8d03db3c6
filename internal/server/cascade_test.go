package server

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// gateLayer blocks every Infer call until a token arrives — it stands in
// for a model that runs far slower than the calibrator promised, so closed
// windows pile up behind an in-flight batch exactly like a production
// overrun.
type gateLayer struct {
	tokens   chan struct{}
	openOnce sync.Once
	// passed, when set before any traffic, runs inside Infer once the token
	// has arrived — between the shard's start and end stamps.
	passed func()
}

// release lets one Infer call — one shard — through; open lets all through.
func (g *gateLayer) release() { g.tokens <- struct{}{} }
func (g *gateLayer) open()    { g.openOnce.Do(func() { close(g.tokens) }) }

func (g *gateLayer) Forward(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor  { return x }
func (g *gateLayer) Backward(_ *nn.Context, d *tensor.Tensor) *tensor.Tensor { return d }
func (g *gateLayer) Params() []*nn.Param                                     { return nil }
func (g *gateLayer) Infer(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	<-g.tokens
	if g.passed != nil {
		g.passed()
	}
	return x
}

// gatedServer builds a single-worker server whose model blocks in Infer
// until release() is called (or the returned open() drains everything).
// maxBacklog sets Config.MaxBacklogWindows (0 = the default).
func gatedServer(t *testing.T, queueFactor float64, maxBacklog int) (*Server, *FakeClock, func(), func()) {
	t.Helper()
	s, clk, gate := gatedServerWith(t, func(c *Config) {
		c.QueueFactor = queueFactor
		c.MaxBacklogWindows = maxBacklog
	})
	return s, clk, gate.release, gate.open
}

// gatedServerWith is gatedServer with the rest of the Config open to the
// caller, returning the gate itself.
func gatedServerWith(t *testing.T, mutate func(*Config)) (*Server, *FakeClock, *gateLayer) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	gate := &gateLayer{tokens: make(chan struct{})}
	model := nn.NewSequential(
		gate,
		nn.NewDense(4, 3, nn.Fixed(), nn.Fixed(), true, rng),
	)
	clk := NewFakeClock(time.Unix(0, 0))
	cfg := Config{
		Model:      model,
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{4},
		SLO:        2 * time.Second,
		Workers:    1,
		Clock:      clk,
		SampleTime: func(r float64) float64 { return r * r },
	}
	mutate(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gate.open(); s.Stop() })
	return s, clk, gate
}

// TestCascadeLatencyAdmissionAndDegradation is the regression test for the
// serving-window latency cascade. A deliberately gated model makes window 0
// overrun; the pre-fix behaviors this pins as gone:
//
//   - the rate decision budgeted every window a fresh T/2, blind to the
//     windows in flight ahead of it — now a one-query window behind the
//     backlog is served degraded (0.5, recorded) instead of at r=1;
//   - admission control counted only s.pending — now it budgets against
//     the backlog horizon and trips with ErrOverloaded while windows are
//     still parked in the dispatcher;
//   - per-query latency must include the queueing delay spent behind
//     in-flight windows, not just the batch's own processing time.
func TestCascadeLatencyAdmissionAndDegradation(t *testing.T) {
	s, clk, release, _ := gatedServer(t, 2, 0) // limit = 2·capacity within remaining slack
	submit := func(k, n int) (accepted []<-chan Result, rejected int) {
		for j := 0; j < n; j++ {
			ch, err := s.Submit(input(int64(100*k + j)))
			switch {
			case err == nil:
				accepted = append(accepted, ch)
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				t.Fatalf("window %d submit %d: %v", k, j, err)
			}
		}
		return accepted, rejected
	}

	// Windows 0–2 each bring 20 queries — 1.25 s of estimated lower-bound
	// work against a 1 s window — so the estimated horizon runs 0.25 s
	// further ahead per window while the gated worker holds everything.
	w0, rej := submit(0, 20)
	if rej != 0 {
		t.Fatalf("empty server rejected %d", rej)
	}
	clk.Tick(time.Second)
	w1, rej := submit(1, 20)
	if rej != 0 {
		t.Fatalf("backlog 0.25 s should still admit 20, rejected %d", rej)
	}
	clk.Tick(time.Second)
	// Window 2: 0.5 s of backlog outlasts the next close, the remaining
	// budget holds 8 lower-bound queries, QueueFactor 2 doubles it: 16
	// admitted, 4 shed — admission trips on in-flight work, not just
	// s.pending, and it trips while the ticker is still ticking.
	w2, rej := submit(2, 20)
	if len(w2) != 16 || rej != 4 {
		t.Fatalf("saturated window admitted %d / rejected %d, want 16/4", len(w2), rej)
	}
	clk.Tick(time.Second)
	// Window 3 is one query. Pre-fix it would be served at r=1 with a fresh
	// T/2 budget; the backlog-aware policy degrades it to 0.5 and records
	// the degradation.
	w3, rej := submit(3, 1)
	if rej != 0 {
		t.Fatalf("one query within remaining slack was rejected")
	}
	clk.Tick(time.Second)

	st := s.Stats()
	if st.Rejected != 4 {
		t.Fatalf("stats rejected %d, want 4", st.Rejected)
	}
	if st.BacklogWindows != 4 || st.PeakBacklogWindows < 4 {
		t.Fatalf("backlog gauges %d now / %d peak, want 4/≥4", st.BacklogWindows, st.PeakBacklogWindows)
	}
	if st.BacklogSeconds <= 0 {
		t.Fatalf("estimated backlog seconds %v, want > 0 with four windows parked", st.BacklogSeconds)
	}
	if st.InFlightQueries != 20+20+16+1 {
		t.Fatalf("in-flight queries %d, want 57", st.InFlightQueries)
	}

	// Drain one window per fake second: each settle happens a full window
	// later than a healthy pipeline would manage. The gate takes one token per
	// shard, and a lone worker gets minShard-sized shards.
	drain := func(chans []<-chan Result) []Result {
		for range (len(chans) + minShard - 1) / minShard {
			release()
		}
		out := make([]Result, 0, len(chans))
		for _, ch := range chans {
			out = append(out, <-ch)
		}
		return out
	}
	for i, res := range drain(w0) { // settles at t=4, enqueued at t=0
		if res.Latency != 4*time.Second || !res.SLOMiss {
			t.Fatalf("w0 query %d latency %v miss=%v, want the full 4 s queueing delay",
				i, res.Latency, res.SLOMiss)
		}
	}
	clk.Advance(time.Second)
	for i, res := range drain(w1) { // settles at t=5, enqueued at t=1
		if res.Latency != 4*time.Second || !res.SLOMiss {
			t.Fatalf("w1 query %d latency %v, want 4 s including 3 windows of queueing", i, res.Latency)
		}
	}
	clk.Advance(time.Second)
	for _, res := range drain(w2) {
		if res.Latency != 4*time.Second || !res.SLOMiss {
			t.Fatalf("w2 latency %v, want 4 s", res.Latency)
		}
	}
	clk.Advance(time.Second)
	for _, res := range drain(w3) {
		if res.Rate != 0.5 {
			t.Fatalf("window behind backlog served at %v, want degraded 0.5", res.Rate)
		}
	}

	st = s.Stats()
	// Two degradations: window 2 (16 queries — feasible on an empty pool,
	// infeasible behind 0.5 s of backlog) and window 3 (rate 1 → 0.5).
	if st.DegradedBatches != 2 {
		t.Fatalf("degraded batches %d, want 2", st.DegradedBatches)
	}
	if st.InfeasibleBatches != 3 {
		t.Fatalf("infeasible batches %d, want the three overrun windows", st.InfeasibleBatches)
	}
	if st.BacklogWindows != 0 || st.InFlightQueries != 0 {
		t.Fatalf("drained server still reports backlog %d / in-flight %d", st.BacklogWindows, st.InFlightQueries)
	}
}

// TestTickerNeverBlocksOnParkedWindows pins the structural half of the fix:
// the old dispatch channel held 8 windows and then stalled the batch ticker
// itself. Twelve windows close against a fully gated worker — every tick
// must return (a blocked ticker deadlocks this test), and every accepted
// query must still be answered once the gate opens.
func TestTickerNeverBlocksOnParkedWindows(t *testing.T) {
	s, clk, _, open := gatedServer(t, 1, 64) // valve above the window count
	const windows = 12                       // > 8, the old dispatch-buffer bound
	var chans []<-chan Result
	for k := 0; k < windows; k++ {
		ch, err := s.Submit(input(int64(k)))
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		chans = append(chans, ch)
		clk.Tick(time.Second) // deadlocks here pre-fix once the buffer fills
	}
	if st := s.Stats(); st.PeakBacklogWindows < windows-1 {
		t.Fatalf("peak backlog %d, want ≥ %d parked windows", st.PeakBacklogWindows, windows-1)
	}
	open()
	for k, ch := range chans {
		if res := <-ch; res.Output == nil {
			t.Fatalf("window %d query unanswered after the gate opened", k)
		}
	}
}

// TestMaxBacklogWindowsSafetyValve pins the hard cap behind the estimated
// horizon: windows of one query keep the model's horizon level with the
// clock (1 s of estimated work per 1 s window), so estimate-based admission
// never trips — but the pool is wedged, and the windows are genuinely
// unfinished. Beyond MaxBacklogWindows the valve sheds regardless of what
// the model claims, bounding queued memory when reality diverges from the
// calibration.
func TestMaxBacklogWindowsSafetyValve(t *testing.T) {
	s, clk, _, open := gatedServer(t, 100, 3)
	var chans []<-chan Result
	for k := 0; k < 3; k++ {
		ch, err := s.Submit(input(int64(k)))
		if err != nil {
			t.Fatalf("window %d below the valve: %v", k, err)
		}
		chans = append(chans, ch)
		clk.Tick(time.Second)
	}
	// The model/reality contrast the valve exists for: the estimated
	// horizon shows at most the latest window's work (it drains with the
	// clock), while three windows are genuinely wedged.
	if st := s.Stats(); st.BacklogSeconds > 1 || st.BacklogWindows != 3 {
		t.Fatalf("estimated backlog %vs / real windows %d; want ≤1s with 3 wedged",
			st.BacklogSeconds, st.BacklogWindows)
	}
	if _, err := s.Submit(input(9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4th window with 3 wedged: err %v, want ErrOverloaded from the valve", err)
	}
	open()
	for k, ch := range chans {
		if res := <-ch; res.Output == nil {
			t.Fatalf("window %d unanswered after the gate opened", k)
		}
	}
}

// TestConcurrentWindowsPartitionWorkers pins the scheduler's work queue:
// with the pool gated and several windows parked, opening the gate must let
// windows drain concurrently — bounded by the pool — rather than strictly
// serially. Two windows, two workers, a gate that admits exactly two
// concurrent Infer calls: both windows' shards must be in flight at once.
func TestConcurrentWindowsPartitionWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	arrived := make(chan struct{}, 4)
	probe := &probeLayer{gate: gate, arrived: arrived, inFlight: &inFlight, peak: &peak}
	model := nn.NewSequential(probe, nn.NewDense(4, 3, nn.Fixed(), nn.Fixed(), true, rng))
	clk := NewFakeClock(time.Unix(0, 0))
	s, err := New(Config{
		Model:       model,
		Rates:       slicing.NewRateList(0.25, 4),
		InputShape:  []int{4},
		SLO:         2 * time.Second,
		Workers:     2,
		Clock:       clk,
		SampleTime:  func(r float64) float64 { return r * r },
		QueueFactor: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop() })

	var chans []<-chan Result
	for k := 0; k < 2; k++ {
		ch, err := s.Submit(input(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		clk.Tick(time.Second)
	}
	// Both windows are in the scheduler; with two workers the pool splits
	// one worker per window. Wait until both shards are genuinely blocked
	// inside Infer — concurrent by construction — then release them.
	<-arrived
	<-arrived
	close(gate)
	for _, ch := range chans {
		<-ch
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak concurrent window shards %d, want 2 (partitioned pool)", got)
	}
}

// probeLayer counts concurrent Infer calls and blocks them on a gate so the
// test can observe true overlap.
type probeLayer struct {
	gate           chan struct{}
	arrived        chan struct{}
	inFlight, peak *atomic.Int64
}

func (p *probeLayer) Forward(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor  { return x }
func (p *probeLayer) Backward(_ *nn.Context, d *tensor.Tensor) *tensor.Tensor { return d }
func (p *probeLayer) Params() []*nn.Param                                     { return nil }
func (p *probeLayer) Infer(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	n := p.inFlight.Add(1)
	for {
		cur := p.peak.Load()
		if n <= cur || p.peak.CompareAndSwap(cur, n) {
			break
		}
	}
	p.arrived <- struct{}{}
	<-p.gate
	p.inFlight.Add(-1)
	return x
}

// TestSchedulerHammer floods a real-clock server from many goroutines while
// windows churn — the -race exercise for the concurrent dispatcher. Every
// accepted query must be answered exactly once, and the counters must
// reconcile.
func TestSchedulerHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := New(Config{
		Model:       models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:       slicing.NewRateList(0.25, 4),
		InputShape:  []int{4},
		SLO:         4 * time.Millisecond,
		Workers:     4,
		SampleTime:  func(r float64) float64 { return 2e-6 * r * r },
		QueueFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	var accepted, answered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				x := tensor.New(4)
				for j := range x.Data {
					x.Data[j] = rng.NormFloat64()
				}
				ch, err := s.Submit(x)
				if err != nil {
					continue // rejections are part of the exercise
				}
				accepted.Add(1)
				res := <-ch
				if res.Output != nil {
					answered.Add(1)
				}
				if i%8 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(int64(p))
	}
	wg.Wait()
	s.Stop()
	if accepted.Load() == 0 {
		t.Fatal("hammer accepted nothing; the exercise is vacuous")
	}
	if accepted.Load() != answered.Load() {
		t.Fatalf("accepted %d but answered %d", accepted.Load(), answered.Load())
	}
	st := s.Stats()
	if st.Processed != accepted.Load() {
		t.Fatalf("stats processed %d, accepted %d", st.Processed, accepted.Load())
	}
}
