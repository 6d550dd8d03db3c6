package server

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// submitN submits n queries that must all be admitted.
func submitN(t *testing.T, s *Server, n int) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, n)
	for i := range chans {
		ch, err := s.Submit(input(int64(i)))
		if err != nil {
			t.Fatalf("submit %d of %d: %v", i, n, err)
		}
		chans[i] = ch
	}
	return chans
}

// checkStages fails unless the reply's stage breakdown adds up to its latency.
func checkStages(t *testing.T, res Result) {
	t.Helper()
	if sum := res.Queued + res.Dispatch + res.Compute + res.Settle; sum != res.Latency {
		t.Fatalf("stages %v+%v+%v+%v = %v, latency %v",
			res.Queued, res.Dispatch, res.Compute, res.Settle, sum, res.Latency)
	}
}

// threeShards is a window one worker cuts into shards of 16, 16 and 8.
var threeShards = []int{minShard, minShard, 8}

const threeShardsN = 2*minShard + 8

// TestShardRepliesStreamInSubmitOrder: a window of three shards on one
// worker, the gate letting one shard through per fake second. Each shard's
// queries are answered when that shard ends — not when the window does — in
// submit order, with the latency of their own shard; InFlight drops by
// exactly the shard, and the window-level accounting (backlog gauge, batch
// counters) waits for the last shard.
func TestShardRepliesStreamInSubmitOrder(t *testing.T) {
	s, clk, gate := gatedServerWith(t, func(c *Config) { c.QueueFactor = 4 })
	chans := submitN(t, s, threeShardsN)
	clk.Tick(time.Second)
	answered := 0
	for k, size := range threeShards {
		clk.Advance(time.Second)
		gate.release()
		for i, ch := range chans[answered : answered+size] {
			res := <-ch
			if res.Err != nil || res.Output == nil {
				t.Fatalf("shard %d query %d: err %v output %v", k, i, res.Err, res.Output)
			}
			// Submitted at 0, window closed at 1, shard k ended at 2+k.
			if want := time.Duration(2+k) * time.Second; res.Latency != want || res.Settle != 0 {
				t.Fatalf("shard %d query %d: latency %v settle %v, want %v and 0", k, i, res.Latency, res.Settle, want)
			}
			checkStages(t, res)
		}
		answered += size
		for i, ch := range chans[answered:] {
			if len(ch) != 0 {
				t.Fatalf("query %d answered while shard %d was the last to finish", answered+i, k)
			}
		}
		st := s.Stats()
		if st.InFlightQueries != threeShardsN-answered {
			t.Fatalf("after shard %d: %d in flight, want %d", k, st.InFlightQueries, threeShardsN-answered)
		}
		wantWindows, wantBatches := 1, int64(0)
		if answered == threeShardsN {
			wantWindows, wantBatches = 0, 1
		}
		if st.BacklogWindows != wantWindows || st.Batches != wantBatches {
			t.Fatalf("after shard %d: backlog %d windows, %d batches recorded, want %d and %d",
				k, st.BacklogWindows, st.Batches, wantWindows, wantBatches)
		}
	}
	if st := s.Stats(); st.Processed != threeShardsN {
		t.Fatalf("processed %d, want %d", st.Processed, threeShardsN)
	}
}

// TestShardWatchdogAbandonsMiddle: the watchdog abandons the second of three
// shards. Its queries get ErrShardStuck, the first and third shards their
// outputs, and the window is recorded and observed exactly once.
func TestShardWatchdogAbandonsMiddle(t *testing.T) {
	s, clk, gate := gatedServerWith(t, func(c *Config) { c.QueueFactor = 4 })
	// Let the static calibrator take observations — they need worker time
	// that is not zero — and count them by the ramp they use up.
	gate.passed = func() { clk.Advance(time.Millisecond) }
	s.cal.alpha = ewmaAlpha
	s.cal.Ramp(10)
	chans := submitN(t, s, threeShardsN)
	clk.Tick(time.Second)
	gate.release()
	for _, ch := range chans[:minShard] {
		if res := <-ch; res.Err != nil {
			t.Fatalf("first shard: %v", res.Err)
		}
	}
	// The second shard waits at the gate; tick until the watchdog gives up
	// on it. Tick returns once the scan, replies included, is done.
	for ticks := 0; len(chans[minShard]) == 0; ticks++ {
		if ticks == 20 {
			t.Fatal("watchdog never abandoned the gated shard")
		}
		clk.Tick(time.Second)
	}
	for i, ch := range chans[minShard : 2*minShard] {
		if res := <-ch; !errors.Is(res.Err, ErrShardStuck) || res.Output != nil {
			t.Fatalf("abandoned shard query %d: err %v output %v", i, res.Err, res.Output)
		}
	}
	if st := s.Stats(); st.Batches != 0 || st.BacklogWindows != 1 || st.InFlightQueries != 8 {
		t.Fatalf("with the third shard still waiting: %d batches, %d windows, %d in flight; want 0, 1, 8",
			st.Batches, st.BacklogWindows, st.InFlightQueries)
	}
	gate.open() // the replacement worker's third shard, and the zombie
	for i, ch := range chans[2*minShard:] {
		res := <-ch
		if res.Err != nil || res.Output == nil {
			t.Fatalf("third shard query %d: err %v", i, res.Err)
		}
		checkStages(t, res)
	}
	st := s.Stats()
	if st.StuckShards != 1 || st.FailedQueries != minShard || st.Batches != 1 || st.Processed != threeShardsN {
		t.Fatalf("stuck %d failed %d batches %d processed %d, want 1, %d, 1, %d",
			st.StuckShards, st.FailedQueries, st.Batches, st.Processed, minShard, threeShardsN)
	}
	s.cal.mu.Lock()
	observed := 10 - s.cal.rampLeft
	s.cal.mu.Unlock()
	if observed != 1 {
		t.Fatalf("calibrator observed the window %d times, want once", observed)
	}
}

// TestShardOneReplyPerQuery: whichever way a shard ends, each of its queries
// receives one Result and no second one.
func TestShardOneReplyPerQuery(t *testing.T) {
	// drained fails unless every channel holds its one reply already, takes
	// them, and returns how many carry an error matching want.
	drained := func(t *testing.T, chans []<-chan Result, want error) (matched int) {
		t.Helper()
		for i, ch := range chans {
			if len(ch) != 1 {
				t.Fatalf("query %d has %d replies waiting, want 1", i, len(ch))
			}
			res := <-ch
			checkStages(t, res)
			switch {
			case res.Err == nil && res.Output != nil:
			case errors.Is(res.Err, want) && res.Output == nil:
				matched++
			default:
				t.Fatalf("query %d: err %v output %v", i, res.Err, res.Output)
			}
		}
		return matched
	}
	noSecondReply := func(t *testing.T, s *Server, chans []<-chan Result) {
		t.Helper()
		s.Stop()
		for i, ch := range chans {
			if len(ch) != 0 {
				t.Fatalf("query %d was answered twice", i)
			}
		}
		if st := s.Stats(); st.InFlightQueries != 0 || st.BacklogWindows != 0 {
			t.Fatalf("%d queries in flight, %d windows parked after Stop", st.InFlightQueries, st.BacklogWindows)
		}
	}

	t.Run("panic", func(t *testing.T) {
		defer faults.Reset()
		s, clk := testServer(t, func(c *Config) { c.Workers, c.QueueFactor = 1, 4 })
		if err := faults.Enable(faults.WorkerPanic, "first1"); err != nil {
			t.Fatal(err)
		}
		chans := submitN(t, s, threeShardsN)
		clk.Tick(time.Second)
		s.Stop() // returns once every shard has answered
		if got := drained(t, chans, ErrWorkerPanic); got != minShard {
			t.Fatalf("%d queries failed with the panic, want the %d of its shard", got, minShard)
		}
		noSecondReply(t, s, chans)
	})

	t.Run("stop mid-window", func(t *testing.T) {
		s, clk, gate := gatedServerWith(t, func(c *Config) { c.QueueFactor = 4 })
		chans := submitN(t, s, threeShardsN)
		clk.Tick(time.Second)
		gate.release()
		stopped := make(chan struct{})
		go func() { s.Stop(); close(stopped) }()
		gate.open()
		<-stopped
		if got := drained(t, chans, ErrStopped); got != 0 {
			t.Fatalf("%d queries of a window closed before Stop were refused", got)
		}
		noSecondReply(t, s, chans)
	})

	t.Run("closed scheduler", func(t *testing.T) {
		s, clk := testServer(t, func(c *Config) { c.QueueFactor = 4 })
		s.sched.shutdown() // a window closing after this finds the scheduler closed
		chans := submitN(t, s, threeShardsN)
		clk.Tick(time.Second)
		if got := drained(t, chans, ErrStopped); got != threeShardsN {
			t.Fatalf("%d queries answered ErrStopped, want all %d", got, threeShardsN)
		}
		noSecondReply(t, s, chans)
	})
}

// TestShardRandomizedOneReply: seeded window sizes × pool sizes × t(r) scales
// (so shards are sized by the pool, by minShard and by shardWork in turn).
// Every query is answered once, by the time Stop returns, and its stages add
// up to its latency.
func TestShardRandomizedOneReply(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 24; trial++ {
		workers := 1 + rng.Intn(4)
		scale := []float64{1e-6, 1e-4, 1e-2}[rng.Intn(3)]
		s, clk := testServer(t, func(c *Config) {
			c.Workers = workers
			c.QueueFactor = 1e6
			c.SampleTime = func(r float64) float64 { return scale * r * r }
		})
		var chans []<-chan Result
		for w := 1 + rng.Intn(4); w > 0; w-- {
			chans = append(chans, submitN(t, s, 1+rng.Intn(120))...)
			clk.Tick(time.Second)
		}
		chans = append(chans, submitN(t, s, rng.Intn(20))...) // flushed by Stop
		s.Stop()
		for i, ch := range chans {
			if len(ch) != 1 {
				t.Fatalf("trial %d (%d workers, scale %g): query %d has %d replies when Stop returns",
					trial, workers, scale, i, len(ch))
			}
			res := <-ch
			if res.Err != nil || res.Output == nil {
				t.Fatalf("trial %d query %d: err %v", trial, i, res.Err)
			}
			checkStages(t, res)
		}
		for i, ch := range chans {
			if len(ch) != 0 {
				t.Fatalf("trial %d: query %d answered twice", trial, i)
			}
		}
	}
}

// sleepLayer stands in for a model that takes at least perSample of one
// worker's time for every sample of the shard, and counts the shards.
type sleepLayer struct {
	perSample time.Duration
	shards    atomic.Int32
}

func (l *sleepLayer) Forward(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor  { return x }
func (l *sleepLayer) Backward(_ *nn.Context, d *tensor.Tensor) *tensor.Tensor { return d }
func (l *sleepLayer) Params() []*nn.Param                                     { return nil }
func (l *sleepLayer) Infer(_ *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	l.shards.Add(1)
	time.Sleep(time.Duration(x.Dim(0)) * l.perSample)
	return x
}

// TestShardArenaWithinChunkBound: a 200-query window at full width runs as
// one shard on one worker, and the worker's arena stays within one chunk's
// pass plus the shard's input rows and trunk output (the bound of
// models.TestSharedInferChunkArenaBound), not a footprint that grows with
// the shard.
func TestShardArenaWithinChunkBound(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(9))
	model, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	s, err := New(Config{
		Model:      model,
		Rates:      rates,
		FixedRate:  1,
		InputShape: []int{3, 16, 16},
		SLO:        20 * time.Second, // no tick in the test's lifetime: Stop closes the one window
		Workers:    1,
		SampleTime: func(float64) float64 { return 1e-9 }, // the whole window is one shard
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	chans := make([]<-chan Result, n)
	for i := range chans {
		x := tensor.New(3, 16, 16)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		if chans[i], err = s.Submit(x); err != nil {
			t.Fatalf("submit %d of %d: %v", i, n, err)
		}
	}
	s.Stop()
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("%d batches, want the one window", st.Batches)
	}

	// One chunk's pass, from a worker-like arena: the batch is taken from it
	// before the pass. The largest activation at r = 1 is the 16×16×16
	// second conv's, and the trunk ends in 64 channels.
	const in, out = 3 * 16 * 16, 64
	c := nn.TrunkChunkBytes / (8 * 16 * 16 * 16)
	shared := slicing.NewShared(model, rates)
	arena := tensor.NewArena()
	for i := 0; i < 2; i++ {
		x := arena.GetUninit(c, 3, 16, 16)
		shared.Infer(1, x, arena)
		arena.Reset()
	}
	bound := 8 * int64(arena.Footprint()+(n-c)*in+n*out)
	if got := s.Stats().ArenaBytes; got > bound {
		t.Fatalf("a %d-query shard left %d arena bytes, want ≤ %d: one %d-sample chunk's pass plus the shard's input rows and trunk output",
			n, got, bound, c)
	}
}

// TestServerArenasFollowTraffic: measured calibration runs on a throwaway
// pool, so a live worker's arena starts empty, a single-query window grows it
// to one sample's pass and no further, and a measured Swap leaves it alone.
func TestServerArenasFollowTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	model, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	s, err := New(Config{
		Model:      model,
		Rates:      rates,
		InputShape: []int{3, 16, 16},
		SLO:        200 * time.Millisecond,
		Workers:    2,
		// no SampleTime: t(r) is measured
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if got := s.Stats().ArenaBytes; got != 0 {
		t.Fatalf("ArenaBytes = %d after New, want 0: a live worker kept the calibration pass", got)
	}

	x := tensor.New(3, 16, 16)
	for j := range x.Data {
		x.Data[j] = rng.NormFloat64()
	}
	ch, err := s.Submit(x)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil {
		t.Fatal(res.Err)
	}
	rate := 0.0
	for _, rec := range s.Recorder().Snapshot() {
		if rec.Arrivals > 0 {
			rate = rec.Rate
		}
	}
	// One sample's pass at the served rate, from a worker-like arena.
	arena := tensor.NewArena()
	slicing.NewShared(model, rates).Infer(rate, arena.GetUninit(1, 3, 16, 16), arena)
	arena.Reset()
	bound := 8 * int64(arena.Footprint())
	served := s.Stats().ArenaBytes
	if served == 0 || served > bound {
		t.Fatalf("ArenaBytes = %d after one single-query window at r = %v, want in (0, %d]: one sample's pass",
			served, rate, bound)
	}

	next, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	if err := s.Swap(slicing.NewShared(next, rates), ModelInfo{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ArenaBytes; got != served {
		t.Fatalf("ArenaBytes = %d after a measured Swap, want %d as traffic left it", got, served)
	}
}

// TestCalibratorDivisor: a window cut into more shards than there are workers
// must be observed at its pool-effective time — worker·time over the pool
// size, not over the shard count. The configured t(r) is pool-effective, so
// one worker takes pool·t(r) a sample; seven shards on two workers must
// observe t(r) back.
//
// The exact check runs in virtual time: finish settles a window whose seven
// shards charged exactly their own work. The end-to-end run sleeps, and a
// sleep can overshoot under load but never fall short, so there the observed
// t(r) is held to a floor that every one of the seven shard spans is needed
// to reach.
func TestCalibratorDivisor(t *testing.T) {
	const (
		pool      = 2
		perSample = time.Millisecond // the configured pool-effective t(r)
		shards    = 7
		n         = shards * minShard
	)
	rng := rand.New(rand.NewSource(8))
	sleeper := &sleepLayer{perSample: pool * perSample}
	s, err := New(Config{
		Model:      nn.NewSequential(sleeper, nn.NewDense(4, 3, nn.Fixed(), nn.Fixed(), true, rng)),
		Rates:      slicing.NewRateList(0.25, 4),
		FixedRate:  1,
		InputShape: []int{4},
		SLO:        20 * time.Second, // no tick in the test's lifetime: Stop closes the one window
		Workers:    pool,
		SampleTime: func(float64) float64 { return perSample.Seconds() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.cal.alpha = 1 // the estimate becomes the one observation
	before := sleeper.shards.Load()
	chans := submitN(t, s, n)
	s.Stop()
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("%d batches, want the one window", st.Batches)
	}
	if got := sleeper.shards.Load() - before; got != shards {
		t.Fatalf("the window ran as %d shards, want %d on %d workers", got, shards, pool)
	}
	if got := s.cal.SampleTime(1); got < perSample.Seconds() {
		t.Fatalf("observed t(r) %.4g s over %d shards on %d workers, below the %.4g s all %d shard spans add up to",
			got, shards, pool, perSample.Seconds(), shards)
	}

	// Virtual time: each shard charges its own minShard samples at
	// pool·t(r), no more.
	job := &batchJob{queries: make([]*query, n), decision: serving.Decision{Rate: 1}}
	job.begin(shards)
	job.workerNanos.Store(int64(n * pool * perSample))
	s.sched.mu.Lock()
	s.sched.jobs++ // finish settles a window in flight
	s.sched.mu.Unlock()
	s.sched.finish(job)
	if got := s.cal.SampleTime(1); math.Abs(got/perSample.Seconds()-1) > 0.05 {
		t.Fatalf("observed t(r) %.4g s over %d shards on %d workers, configured %.4g s: the divisor is off",
			got, shards, pool, perSample.Seconds())
	}
}

// TestRetainedOutputDoesNotRetainInput: Result.Output lives inside the
// query, so whoever keeps it keeps the query — which must have let go of the
// caller's input by then.
func TestRetainedOutputDoesNotRetainInput(t *testing.T) {
	s, clk := testServer(t, nil)
	collected := make(chan struct{})
	ch := func() <-chan Result {
		x := input(1)
		runtime.SetFinalizer(x, func(*tensor.Tensor) { close(collected) })
		ch, err := s.Submit(x)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}()
	clk.Tick(time.Second)
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for tries := 0; ; tries++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(res.Output)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if tries == 100 {
			t.Fatal("the input is still reachable while only the output is held")
		}
	}
}

// TestSubmitReplyAllocs is the allocation gate of the query path: a query
// costs its query struct and its reply channel (header and buffer) — three
// allocations — and everything else is per shard or per window: at most six a
// shard (task, output block, the model's own per-pass bookkeeping, the
// window's job, decision record and goroutines, shared out).
func TestSubmitReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, shards = 256, 2 // two workers, ~1 µs a sample: one shard each
	s, clk := testServer(t, func(c *Config) {
		c.SampleTime = func(r float64) float64 { return 1e-6 * r * r }
	})
	x := input(1)
	chans := make([]<-chan Result, n)
	window := func() {
		for i := range chans {
			ch, err := s.Submit(x)
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		clk.Tick(time.Second)
		for _, ch := range chans {
			if res := <-ch; res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	window() // grow the arenas, the pending slices and the recorder ring
	window()
	if got, limit := testing.AllocsPerRun(20, window), float64(3*n+6*shards); got > limit {
		t.Fatalf("%d queries in %d shards cost %.0f allocations, want ≤ %.0f (3 a query + 6 a shard)",
			n, shards, got, limit)
	} else {
		t.Logf("%.0f allocations for %d queries in %d shards", got, n, shards)
	}
}
