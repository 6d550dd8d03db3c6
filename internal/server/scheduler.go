package server

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sync"
	"sync/atomic"

	"modelslicing/internal/faults"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// scheduler is the dispatch half of the server: closed windows are sliced
// oldest-query-first into work-sized shards on a single FIFO work queue,
// drained by whichever workers are idle, and each shard's queries are answered
// the moment it finishes. Its contracts fix the serving-window latency cascade
// and bound every failure to the shard it happened in:
//
//   - enqueue never blocks, so the batch ticker keeps closing windows no
//     matter how far processing has fallen behind (the old fixed-size
//     dispatch channel parked up to 8 windows invisibly, then stalled the
//     ticker itself). Admission control — the backlog-horizon budget plus
//     the MaxBacklogWindows safety valve — is what bounds the queue.
//   - windows drain in close order (earliest deadline first), and because
//     workers pull *shards*, not whole windows, a freed worker immediately
//     joins the oldest unfinished window: a lone window spreads across the
//     whole idle pool, a backlog overlaps window k+1 with the tail of
//     window k, and no worker idles while any shard waits — the
//     work-conserving behavior the Backlog horizon models.
//   - each in-flight shard holds exactly one worker, bounding concurrency
//     by the pool size — no unbounded goroutines.
//   - a shard is a failure domain: a panic inside compute is recovered and
//     answered as that shard's error; a shard the watchdog declares stuck
//     is abandoned (its queries answered with an error, its worker replaced
//     by a fresh one so the pool never shrinks) rather than allowed to hold
//     the window hostage. Either way every query of the window still gets
//     exactly one reply — from whoever won its shard's ownership CAS — and
//     the other shards are untouched.
type scheduler struct {
	srv  *Server
	pool int // total workers, for shard sizing

	mu      sync.Mutex
	tasks   []*task   // window shards in window-close order
	free    []*worker // idle workers
	active  []*task   // shards currently executing (watchdog scan set)
	jobs    int       // windows enqueued whose replies have not gone out yet
	running int       // non-abandoned shards currently executing
	closed  bool      // no further enqueues (shutdown)

	wake chan struct{} // capacity 1: queue or pool changed
	done chan struct{} // closed once drained after shutdown
}

// Shard lifecycle states. The CAS from taskRunning decides ownership of the
// shard's queries: the worker goroutine (→ taskDone) or the watchdog
// (→ taskAbandoned) settles them, never both.
const (
	taskRunning int32 = iota
	taskDone
	taskAbandoned
)

// task is one contiguous shard of a window's batch.
type task struct {
	job     *batchJob
	shard   []*query
	started time.Time    // stamped when a worker picks the shard up
	state   atomic.Int32 // taskRunning → taskDone | taskAbandoned
	// abandon releases an injected stall when the watchdog gives up on the
	// shard. Nothing else ever waits on it, so execute makes it (under mu)
	// only while the stall point is armed.
	abandon chan struct{}
}

// Shard sizing (see enqueue): a shard is about shardWork of one worker's
// estimated time, never fewer than minShard samples.
const (
	minShard  = 16
	shardWork = 2e-3 // seconds
)

// newScheduler takes ownership of the worker pool and starts the loop.
func newScheduler(srv *Server, workers []*worker) *scheduler {
	d := &scheduler{
		srv:  srv,
		pool: len(workers),
		free: append([]*worker(nil), workers...),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go d.loop()
	return d
}

// enqueue slices one closed window into shards and appends them to the work
// queue. It never blocks, and it returns the windows-in-flight depth
// including the new window — measured under the queue lock, so the caller's
// peak-backlog watermark cannot miss a concurrent dequeue.
//
// Queries sit in arrival order, so shards cut front to back run (and are
// answered) oldest first. A shard holds about shardWork of one worker's
// estimated time — the calibrator's t(r) is pool-effective, so one worker
// spends pool·t(r) a sample — but no fewer than minShard samples (below that
// the per-pass fixed cost shows) and no more than ⌈n/pool⌉ (a lone window
// still spreads across the whole idle pool).
//
// A closed scheduler (mid- or post-shutdown) fails the window immediately
// with ErrStopped, as one shard, instead of parking shards no one will drain
// — the never-a-hung-channel half of the Submit contract, for the one path
// that could otherwise strand a window.
func (d *scheduler) enqueue(job *batchJob) (depth int) {
	n := len(job.queries)
	per := (n + d.pool - 1) / d.pool
	if t := d.srv.cal.SampleTime(job.decision.Rate) * float64(d.pool); t > 0 {
		per = int(min(max(shardWork/t, minShard), float64(per)))
	}
	shards := (n + per - 1) / per
	d.mu.Lock()
	d.jobs++
	if d.closed {
		d.mu.Unlock()
		job.begin(1)
		now := d.srv.clock.Now()
		for _, q := range job.queries {
			q.err = ErrStopped
			q.computeStart, q.computeEnd = now, now
		}
		d.srv.reply(job, job.queries)
		return 0
	}
	job.begin(shards)
	tasks := make([]task, shards)
	for i := range tasks {
		tasks[i].job, tasks[i].shard = job, job.queries[i*per:min((i+1)*per, n)]
		d.tasks = append(d.tasks, &tasks[i])
	}
	depth = d.jobs
	d.mu.Unlock()
	d.notify()
	return depth
}

// shutdown marks the end of input; done closes once the queue has drained
// and every running shard has settled or been abandoned. A real-time sweep
// keeps the watchdog alive through the drain — the batch ticker that
// normally drives it has already exited, and a shard wedged during shutdown
// must not wedge Stop itself.
func (d *scheduler) shutdown() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.notify()
	go func() {
		t := time.NewTicker(drainSweepEvery)
		defer t.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-t.C:
				d.scanStuck(d.srv.clock.Now())
			}
		}
	}()
}

// depth reports closed windows not yet fully processed.
func (d *scheduler) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs
}

func (d *scheduler) notify() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// loop pairs idle workers with waiting shards, oldest window first.
func (d *scheduler) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		for len(d.tasks) > 0 && len(d.free) > 0 {
			t := d.tasks[0]
			d.tasks = d.tasks[1:]
			wk := d.free[len(d.free)-1]
			d.free = d.free[:len(d.free)-1]
			t.started = d.srv.clock.Now()
			d.active = append(d.active, t)
			d.running++
			go d.run(t, wk)
		}
		exit := d.closed && len(d.tasks) == 0 && d.running == 0
		d.mu.Unlock()
		if exit {
			return
		}
		<-d.wake
	}
}

// scanStuck is the watchdog: any shard executing longer than
// stuckAfterSLOs·SLO is abandoned — its queries answered with ErrShardStuck,
// its worker written off and replaced by a fresh one so the pool never
// shrinks. The worker goroutine itself cannot be killed; when (if) it
// eventually returns it finds the CAS lost and discards everything it
// computed. Driven from the batch ticker (the injected clock, so fake-clock
// tests exercise it deterministically) and from a real-time sweep during
// shutdown.
func (d *scheduler) scanStuck(now time.Time) {
	after := stuckAfterSLOs * d.srv.cfg.SLO
	var victims []*task
	d.mu.Lock()
	kept := d.active[:0]
	for _, t := range d.active {
		if now.Sub(t.started) >= after && t.state.CompareAndSwap(taskRunning, taskAbandoned) {
			if t.abandon != nil {
				close(t.abandon)
			}
			victims = append(victims, t)
			continue
		}
		kept = append(kept, t)
	}
	d.active = kept
	d.mu.Unlock()
	if len(victims) == 0 {
		return
	}
	for _, t := range victims {
		d.srv.metrics.stuckShards.Add(1)
		d.srv.metrics.workersReplaced.Add(1)
		d.srv.noteShardFailure()
		d.failShard(t, fmt.Errorf("%w after %v", ErrShardStuck, after), now)
	}
	// The shards stop counting as running only once their replies are out:
	// a drained scheduler (Stop returning) means nothing is left to answer.
	d.mu.Lock()
	d.running -= len(victims)
	for range victims {
		d.free = append(d.free, newWorker())
	}
	d.mu.Unlock()
	d.notify()
}

// failShard answers every query of an abandoned shard with err. The zombie
// worker goroutine, having lost the state CAS, will touch none of the fields
// written here.
func (d *scheduler) failShard(t *task, err error, now time.Time) {
	for _, q := range t.shard {
		if q.err == nil {
			q.err = err
		}
		q.computeStart, q.computeEnd = t.started, now
	}
	// The zombie may still be walking t.shard: hold one reply count forever,
	// so the window's query slice is never cleared and reused under it.
	t.job.unreplied.Add(1)
	d.srv.reply(t.job, t.shard)
}

// run executes one shard and, if it still owns the shard afterwards, answers
// the shard's queries. Compute runs under execute's recover, so a panicking
// kernel or model layer fails its shard — error results, circuit
// bookkeeping — instead of killing the process.
func (d *scheduler) run(t *task, wk *worker) {
	// A shard is pure compute with no blocking call inside, and loop starts
	// it with go, so it runs ahead of everything queued on its P. Yield once
	// first: the load generator, HTTP intake and the batcher get a CPU
	// before the shard holds it for the whole pass. Compute is timed from
	// after the yield, so the wait never reaches the calibrator; t.started
	// stays the watchdog's pick-up stamp.
	runtime.Gosched()
	s := d.srv
	start := s.clock.Now()
	dropped, err := d.execute(t, wk)
	end := s.clock.Now()

	if !t.state.CompareAndSwap(taskRunning, taskDone) {
		// The watchdog abandoned this shard while it ran: the queries are
		// already answered, the worker already replaced. Drop both. Nothing
		// shared was written on the way here — query mutations happen only
		// below, after the CAS settles ownership — so the zombie and the
		// watchdog can never race on a query.
		return
	}
	t.job.workerNanos.Add(int64(end.Sub(start)))
	for _, q := range dropped {
		q.err = ErrExpired
		s.metrics.expiredDropped.Add(1)
	}
	for _, q := range t.shard {
		q.computeStart, q.computeEnd = start, end
		if err != nil && q.err == nil {
			q.err = err
		}
		// The input is in the batch tensor (or will never be read); a caller
		// that keeps Result.Output, which lives in q, must not keep it too.
		q.x = nil
	}
	if err != nil {
		s.metrics.workerPanics.Add(1)
		s.noteShardFailure()
	} else {
		s.noteShardOK()
	}
	s.reply(t.job, t.shard)

	d.mu.Lock()
	for i, a := range d.active {
		if a == t {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.free = append(d.free, wk)
	d.running--
	d.mu.Unlock()
	d.notify()
}

// execute runs one shard's compute under the panic barrier, with the
// injectable fault points threaded through: an injected panic takes exactly
// the recovery path a real kernel panic would, an injected stall parks the
// goroutine until the watchdog (or a test) releases it, and an injected
// slow-compute sleeps long enough to exercise degradation. Queries whose SLO
// already expired are skipped here — at the moment a worker would start
// paying for them — when Config.DropExpired is set, and returned for run()
// to answer with ErrExpired once it owns the shard. execute itself writes no
// shared query state: ownership of the queries is decided by run()'s state
// CAS, and a shard the watchdog has abandoned may still be executing here.
func (d *scheduler) execute(t *task, wk *worker) (dropped []*query, err error) {
	s := d.srv
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
			// The panic unwound mid-inference; the arena holds a partial
			// frame. Reset it so the worker is reusable.
			wk.arena.Reset()
		}
	}()
	if faults.Should(faults.WorkerPanic) {
		panic("injected worker panic")
	}
	if delay := faults.Delay(faults.SlowCompute); delay > 0 {
		time.Sleep(delay)
	}
	if faults.Active(faults.ShardStall) {
		d.mu.Lock()
		t.abandon = make(chan struct{})
		d.mu.Unlock()
	}
	if t.state.Load() == taskAbandoned ||
		faults.Stall(faults.ShardStall, t.abandon) && t.state.Load() == taskAbandoned {
		// The watchdog gave up on us (releasing the stall, if it came after
		// the channel above existed); don't compute.
		return nil, nil
	}
	shard := t.shard
	if s.cfg.DropExpired {
		expired := func(q *query) bool { return s.clock.Now().Sub(q.enqueued) > s.cfg.SLO }
		// Nothing has expired on the common path: scan first, copy only from
		// the first expired query on.
		if i := slices.IndexFunc(shard, expired); i >= 0 {
			alive := append(make([]*query, 0, len(shard)), shard[:i]...)
			for _, q := range shard[i:] {
				if expired(q) {
					dropped = append(dropped, q)
				} else {
					alive = append(alive, q)
				}
			}
			shard = alive
		}
	}
	if len(shard) > 0 {
		wk.run(t.job.shared, shard, t.job.decision.Rate, s.cfg.InputShape)
	}
	return dropped, nil
}

// finish is the window-level half of settling, run by whoever finishes a
// window's last shard, before that shard's replies go out: the calibrator
// sees the pool-effective batch time — accumulated worker·time divided by the
// concurrency the window could actually use, its shard count up to the pool
// size — the same quantity it measured at startup. t(r) keeps learning even
// (especially) while backlog staggers shards across busy pools, where a naive
// wall-clock measurement would be inflated by queueing.
//
// The window leaves the backlog gauge, and enters the batch counters, before
// its last replies go out, so a caller holding all of them never reads the
// window as still parked.
func (d *scheduler) finish(job *batchJob) {
	s := d.srv
	n := len(job.queries)
	workerBusy := time.Duration(job.workerNanos.Load())
	s.cal.Observe(job.decision.Rate, n, workerBusy/time.Duration(min(job.shards, d.pool)))
	d.mu.Lock()
	d.jobs--
	d.mu.Unlock()
	acc, haveAcc := 0.0, false
	if s.cfg.AccuracyAt != nil {
		acc, haveAcc = s.cfg.AccuracyAt(job.decision.Rate), true
	}
	s.metrics.recordBatch(n, job.decision, workerBusy, acc, haveAcc)
}

// newWorker builds a worker: weights travel with each shard, so a worker is
// just an arena, empty until its first shard sizes it.
func newWorker() *worker {
	return &worker{arena: tensor.NewArena()}
}

// runBatchOn splits a batch into contiguous shards, one per given worker,
// and runs them all concurrently against the given weight set — the
// full-pool fast path that startup and swap calibration time. No fault
// points fire here: calibration measures the hardware, not the chaos
// harness.
func runBatchOn(workers []*worker, shared *slicing.Shared, queries []*query, rate float64, inputShape []int) {
	n := len(queries)
	w := min(len(workers), n)
	per := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := i * per
		hi := min(lo+per, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wk *worker, shard []*query) {
			defer wg.Done()
			wk.run(shared, shard, rate, inputShape)
		}(workers[i], queries[lo:hi])
	}
	wg.Wait()
}
