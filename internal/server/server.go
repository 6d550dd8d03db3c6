// Package server is the live counterpart of internal/serving: a concurrent
// inference engine that serves real queries under a latency SLO with the
// Section 4.1 elastic-batching scheme. Queries accumulate for one T/2
// wall-clock window; when the window closes the batch is served at the
// largest slice rate the Equation-3 policy admits — budgeted not against a
// fresh T/2 but against the window's remaining deadline slack, with the
// estimated work already in flight ahead of it subtracted (the shared
// serving.Backlog model), so overruns degrade later windows visibly instead
// of compounding into silent SLO misses. Closed windows go to a scheduler
// that partitions the worker pool across the backlog: workers share one
// read-only parent weight set (slicing.Shared), each runs the zero-copy
// inference path with its own activation arena, and a shard's batch runs one
// batched GEMM per layer. Per-rate per-sample times come from an online
// calibrator rather than the r² idealization, admission control sheds load
// against the same backlog horizon the rate decision uses, and everything is
// observable over a Prometheus-style /metrics endpoint.
//
// The scheduling decision itself lives in serving.Policy and
// serving.Backlog, shared with the clock-free simulation, so the live path
// and the simulated path cannot drift apart — a lockstep test drives both
// with one arrival trace and demands identical per-window decisions.
package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/nn"
	"modelslicing/internal/obs"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// Errors returned by Submit, or carried in a Result's Err field when a
// query was accepted but its shard failed.
var (
	// ErrOverloaded signals admission control: the deadline slack left
	// after the work already queued and in flight cannot absorb another
	// pending query even at the lowest rate, so accepting it could only
	// add an SLO miss.
	ErrOverloaded = errors.New("server: overloaded, backlog exceeds lower-bound capacity")
	// ErrStopped signals a query submitted during or after shutdown.
	ErrStopped = errors.New("server: stopped")
	// ErrWorkerPanic is the Result error for queries whose shard panicked
	// mid-compute; the panic was recovered, the rest of the window is
	// unaffected, and the server keeps serving.
	ErrWorkerPanic = errors.New("server: worker panicked")
	// ErrShardStuck is the Result error for queries whose shard the
	// watchdog declared stuck and abandoned (the worker was replaced).
	ErrShardStuck = errors.New("server: shard stuck")
	// ErrExpired is the Result error for queries dropped at dispatch
	// because their SLO deadline had already passed (Config.DropExpired).
	ErrExpired = errors.New("server: deadline already expired, query dropped")
)

// Config parameterizes a live server.
type Config struct {
	// Model is the parent network trained with model slicing.
	Model nn.Layer
	// Rates are the deployable slice rates.
	Rates slicing.RateList
	// InputShape is the single-sample input shape (e.g. [16] for a
	// 16-feature MLP, [3, 32, 32] for images).
	InputShape []int
	// SLO is the latency bound T; batches form every T/2.
	SLO time.Duration
	// Workers is the number of parallel shards a batch is split across.
	// Workers share one read-only weight set (the zero-copy inference path
	// is goroutine-safe); each holds only a private activation arena. When
	// backlog parks more than one closed window, the scheduler partitions
	// the pool so the windows drain concurrently.
	// Default: min(4, GOMAXPROCS).
	Workers int
	// QueueFactor scales the admission bound: submissions are rejected
	// once pending > QueueFactor·capacity(r_min) within the slack the
	// backlog leaves of the next window. Default 1.
	QueueFactor float64
	// MaxBacklogWindows is a hard cap on closed windows in flight — the
	// safety valve for when reality diverges from the calibrated model (a
	// wedged pool, a pathological query): the estimated horizon budgets
	// admission in the common case, but beyond this many unfinished
	// windows submissions are shed regardless of what the model claims,
	// bounding queued memory. Default 8.
	MaxBacklogWindows int
	// Headroom in (0, 1] derates the deadline slack the policy budgets
	// against, reserving slack for request intake, GC and OS jitter on
	// saturated machines (a single-core host serving its own load
	// generator needs ~0.7). Default 1: the full slack is spent on
	// inference.
	Headroom float64
	// FixedRate pins the policy to a single rate when > 0 — the
	// fixed-width provisioning baseline the paper argues against.
	FixedRate float64
	// Tier selects the GEMM engine tier ("exact", "fma"); empty
	// defaults to MS_ENGINE_TIER (exact when unset). The tier is applied
	// before startup calibration, so the measured t(r) reflects the engine
	// that will serve traffic.
	Tier string
	// DropExpired drops queries whose SLO deadline has already passed at
	// the moment a worker would start computing them: they receive
	// ErrExpired instead of a late answer, and the worker's time goes to
	// queries that can still be saved. Off by default — the reply contract
	// changes from a late output to an error, which not every client
	// prefers.
	DropExpired bool
	// AccuracyAt maps a rate to its measured accuracy for quality
	// accounting; nil disables it.
	AccuracyAt func(r float64) float64
	// Clock supplies time; nil means the wall clock. Tests inject a
	// FakeClock to drive windows deterministically. Every time the server
	// reads — window ticks, latency, batch elapsed, uptime — comes from
	// this one source, so fake-clock tests exercise exactly the arithmetic
	// production runs.
	Clock Clock
	// SampleTime, when non-nil, fixes t(r) instead of measuring it at
	// startup (tests and pre-profiled deployments).
	SampleTime func(r float64) float64
	// TraceSampleEvery samples every k-th query's full span into the trace
	// ring dumped by /debug/trace. 0 means the default of 16; negative
	// disables the ring (the per-stage histograms stay on — they are
	// lock-free and allocation-free regardless).
	TraceSampleEvery int
	// ModelInfo identifies the model artifact being served (checkpoint
	// epoch, content CRC, path); surfaced on /healthz, /state and /metrics,
	// and replaced wholesale by Swap. Zero value: an in-process model.
	ModelInfo ModelInfo
	// SwapSource, when non-nil, builds the replacement model for a
	// triggered swap (POST /admin/swap; SIGHUP in msserver) — typically by
	// re-opening the checkpoint path. Nil disables triggered swaps;
	// Server.Swap remains callable directly.
	SwapSource func() (*slicing.Shared, ModelInfo, error)
}

// Fixed serving parameters. Each was a Config field once; no caller ever set
// one to anything but its default.
const (
	// stuckAfterSLOs is the watchdog bound in SLOs: a shard executing longer
	// than this is abandoned — its queries answered with ErrShardStuck, its
	// worker written off and replaced — so one wedged kernel cannot hold
	// windows hostage forever. 8·SLO is far past any feasible batch.
	stuckAfterSLOs = 8
	// drainSweepEvery is the real-time interval of the shutdown-drain
	// watchdog sweep: the batch ticker that normally drives the watchdog
	// has exited by then, so a dedicated ticker keeps scanning for wedged
	// shards until the queue drains.
	drainSweepEvery = 50 * time.Millisecond
	// circuitThreshold is how many consecutive shard failures (panics or
	// watchdog-detected stalls) trip the brownout circuit: while open, the
	// rate is pinned to the floor and admission sheds at half its budget;
	// the circuit closes once a shard succeeds and the backlog horizon has
	// drained.
	circuitThreshold = 3
	// decisionLog is the window-decision flight recorder's ring size: the
	// last decisionLog scheduling decisions stay reconstructible via
	// /debug/decisions.
	decisionLog = 256
	// traceLog is the trace ring size (sampled spans retained).
	traceLog = 256
	// swapRampWindows is the recalibration ramp after a Swap: for this many
	// observed windows (at least minObservedBatch samples each) the
	// calibrator weighs fresh observations heavily (rampAlpha instead of the
	// steady-state EWMA), so t(r) converges onto the new model within the
	// ramp instead of over hundreds of batches.
	swapRampWindows = 8
)

// ModelInfo identifies the model artifact a server is serving.
type ModelInfo struct {
	// Epoch is the training epoch recorded in the checkpoint header.
	Epoch uint64 `json:"epoch"`
	// CRC is the checkpoint's header CRC32 — a content identity covering
	// every payload byte through the per-section checksums
	// (persist.Checkpoint.CRC). Zero for an in-process model.
	CRC uint32 `json:"crc32"`
	// Path is the checkpoint file the model was loaded from, when any.
	Path string `json:"path,omitempty"`
}

// Result is the answer to one query.
type Result struct {
	// Output is the model output for the sample (e.g. class logits); nil
	// when Err is set.
	Output *tensor.Tensor
	// Err is non-nil when the query was accepted but not answered with an
	// output: its shard panicked (ErrWorkerPanic), was abandoned by the
	// watchdog (ErrShardStuck), its deadline expired before compute
	// (ErrExpired), or the server shut down around it (ErrStopped). The
	// one-reply contract holds either way: every Submit channel receives
	// exactly one Result.
	Err error
	// Rate is the slice rate the query's batch was served at.
	Rate float64
	// Latency is submission-to-completion time. It includes any queueing
	// delay spent behind windows that were in flight ahead of this one.
	Latency time.Duration
	// SLOMiss reports whether Latency exceeded the configured SLO.
	SLOMiss bool
	// Stage breakdown of Latency (Queued+Dispatch+Compute+Settle == Latency):
	// Queued is submission → window close (waiting for the batch to form),
	// Dispatch is window close → the query's shard starting to compute (the
	// scheduler queue, including the earlier shards of its own window),
	// Compute is that shard's inference time, and Settle is the shard's
	// compute end → reply delivery.
	Queued, Dispatch, Compute, Settle time.Duration
}

// query is one in-flight request. The span stamps are written by the batcher
// (windowClose, before the window is enqueued) and by the owner of the
// query's shard (computeStart, computeEnd), who is also the one to reply, so
// the reply path reads them race-free and the tracing adds zero allocations.
type query struct {
	x        *tensor.Tensor // nil once the shard's owner has no more use for it
	enqueued time.Time
	done     chan Result
	// out is the reply tensor, a view of the shard's output block; it and
	// its one-element shape live in the query so a reply costs no allocation
	// of its own (Result.Output is &out).
	out      tensor.Tensor
	outShape [1]int
	err      error // shard failure or deadline drop; set by whoever owns the shard

	windowClose  time.Time // stamped when the query's T/2 window closes
	computeStart time.Time // stamped when its shard leaves the work queue
	computeEnd   time.Time // stamped when its shard's inference finishes
}

// batchJob is one closed window's worth of queries with its backlog-aware
// scheduling decision and its execution bookkeeping.
type batchJob struct {
	queries  []*query
	decision serving.Decision
	// shared is the weight set this window was closed against. Captured at
	// window close, so a Swap between close and execution cannot move a
	// window onto weights its decision was not calibrated for: in-flight
	// windows finish on the old model, only windows closed after the swap
	// see the new one.
	shared *slicing.Shared
	window int64 // T/2 sequence number of the window this batch closed
	// shards is how many pieces the window was sliced into. remaining counts
	// those not yet finished — whoever finishes the last does the
	// window-level accounting — and unreplied those whose replies are not all
	// out yet: after the last, nobody reads queries and the slice is reused.
	// workerNanos accumulates worker·time across the shards for utilization
	// and calibration.
	shards               int
	remaining, unreplied atomic.Int32
	workerNanos          atomic.Int64
}

// begin sets the shard count before the window's shards become visible.
func (j *batchJob) begin(shards int) {
	j.shards = shards
	j.remaining.Store(int32(shards))
	j.unreplied.Store(int32(shards))
}

// worker owns one activation arena; the weights it reads arrive with each
// shard (the window's captured Shared), so a worker serves whichever model a
// window was closed against — across a Swap, old windows on old weights and
// new windows on new. A worker processes at most one shard at a time, so the
// arena never sees concurrent use.
type worker struct {
	arena *tensor.Arena
}

// Server is a live SLO-aware inference server.
type Server struct {
	cfg    Config
	policy serving.Policy
	cal    *Calibrator
	// shared is the current weight set; read and replaced (Swap) under mu.
	// Windows capture it at close, so the scheduler and workers only ever
	// see it through a batchJob.
	shared   *slicing.Shared
	workers  []*worker
	clock    Clock
	metrics  *metrics
	tracer   *obs.Tracer
	recorder *obs.Recorder
	started  time.Time

	mu      sync.Mutex
	winSeq  int64 // next T/2 window sequence number (every tick consumes one)
	pending []*query
	// spare holds up to two emptied query slices of settled windows for
	// closeWindow to hand back to pending, so a window does not regrow its
	// slice from nothing.
	spare    [][]*query
	inflight int             // queries dispatched but not yet answered
	backlog  serving.Backlog // estimated completion horizon of dispatched work
	info     ModelInfo       // identity of the artifact shared was built from
	stopping bool
	// Brownout circuit: circuitFails counts consecutive failed shards
	// (panic or stuck); at circuitThreshold the circuit opens — the rate is
	// pinned to the floor and admission sheds at half budget — and it
	// closes again once a shard has succeeded (circuitFails back to 0) and
	// the backlog horizon has drained past the current window close.
	circuitOpen  bool
	circuitFails atomic.Int32 // written under mu or to 0; read anywhere

	sched    *scheduler
	quit     chan struct{}
	stopOnce sync.Once
}

// New validates the configuration, calibrates per-rate sample times through
// the shared zero-copy path, and starts the batching and scheduling
// goroutines. The returned server is live; release it with Stop.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("server: nil model")
	}
	if err := cfg.Rates.Check(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if len(cfg.InputShape) == 0 {
		return nil, errors.New("server: empty input shape")
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("server: non-positive SLO %v", cfg.SLO)
	}
	// Non-finite values slip past the range and sign tests below (NaN fails
	// every comparison), so they are refused first.
	if math.IsNaN(cfg.FixedRate) || math.IsInf(cfg.FixedRate, 0) {
		return nil, fmt.Errorf("server: fixed rate %v is not finite", cfg.FixedRate)
	}
	if math.IsNaN(cfg.QueueFactor) || math.IsInf(cfg.QueueFactor, 0) {
		return nil, fmt.Errorf("server: queue factor %v is not finite", cfg.QueueFactor)
	}
	if !(cfg.Headroom >= 0 && cfg.Headroom <= 1) {
		return nil, fmt.Errorf("server: headroom %v outside (0, 1]", cfg.Headroom)
	}
	if cfg.FixedRate > 0 {
		if _, err := cfg.Rates.Index(cfg.FixedRate); err != nil {
			return nil, fmt.Errorf("server: fixed rate: %w", err)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(4, runtime.GOMAXPROCS(0))
	}
	if cfg.QueueFactor <= 0 {
		cfg.QueueFactor = 1
	}
	if cfg.MaxBacklogWindows <= 0 {
		cfg.MaxBacklogWindows = 8
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}

	// Deployable rates: all of them, or just the pinned one in baseline
	// mode. Every rate is served zero-copy from one shared parent weight
	// set — the inference path never writes to the model, so the workers
	// need nothing of their own beyond an activation arena.
	deploy := cfg.Rates
	if cfg.FixedRate > 0 {
		deploy = slicing.RateList{cfg.FixedRate}
	}
	shared := slicing.NewShared(cfg.Model, cfg.Rates)
	if cfg.Tier != "" {
		tier, err := tensor.ParseTier(cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		shared.SetTier(tier)
	}
	workers := make([]*worker, cfg.Workers)
	for w := range workers {
		workers[w] = newWorker()
	}

	if cfg.TraceSampleEvery == 0 {
		cfg.TraceSampleEvery = 16
	}

	started := cfg.Clock.Now()
	s := &Server{
		cfg:      cfg,
		shared:   shared,
		info:     cfg.ModelInfo,
		workers:  workers,
		clock:    cfg.Clock,
		metrics:  newMetrics(cfg.Workers),
		tracer:   obs.NewTracer(cfg.Rates, started, cfg.TraceSampleEvery, traceLog),
		recorder: obs.NewRecorder(decisionLog),
		started:  started,
		quit:     make(chan struct{}),
	}
	if cfg.SampleTime != nil {
		s.cal = newStaticCalibrator(deploy, cfg.SampleTime)
	} else {
		s.cal = &Calibrator{
			perSample: make(map[float64]float64),
			alpha:     ewmaAlpha,
			minN:      minObservedBatch,
		}
		measureSampleTimes(s.cal, cfg.Workers, shared, deploy, cfg.InputShape)
	}
	s.policy = serving.Policy{
		Rates:      cfg.Rates,
		Window:     (cfg.SLO / 2).Seconds() * cfg.Headroom,
		SampleTime: s.cal.SampleTime,
	}
	s.sched = newScheduler(s, workers)
	go s.batchLoop()
	return s, nil
}

// Swap replaces the served model with ns between windows — zero-downtime
// model ops. The switch is copy-on-write at window granularity: windows
// already closed (including shards mid-compute) finish on the weight set
// they captured at close, and every window closed after Swap returns serves
// from ns; no query is dropped, erred or served a half-swapped model.
//
// Before publishing ns, Swap recalibrates t(r) for it — static SampleTime
// configs are re-queried, measured configs re-time each rate on a throwaway
// pool as New does, so live workers keep serving and their arenas stay as
// traffic left them — and arms the calibrator's recalibration ramp
// (swapRampWindows) so the first post-ramp windows decide on estimates that
// track the new model rather than the old one's stale EWMA. The old model's
// backing checkpoint (if mmap-ed) must stay open until its last in-flight
// window settles; msserver simply keeps old mappings open for the process
// lifetime — their count is bounded by the number of swaps, not by traffic.
func (s *Server) Swap(ns *slicing.Shared, info ModelInfo) error {
	if ns == nil {
		return errors.New("server: swap: nil model")
	}
	if !slices.Equal(ns.Rates(), s.cfg.Rates) {
		return fmt.Errorf("server: swap: rate list %v does not match serving config %v",
			ns.Rates(), s.cfg.Rates)
	}
	deploy := s.cfg.Rates
	if s.cfg.FixedRate > 0 {
		deploy = slicing.RateList{s.cfg.FixedRate}
	}
	// The new model serves at the tier the operator configured, regardless
	// of what tier its builder defaulted to.
	s.mu.Lock()
	ns.SetTier(s.shared.Tier())
	s.mu.Unlock()
	if s.cfg.SampleTime != nil {
		for _, r := range deploy {
			s.cal.set(r, s.cfg.SampleTime(r))
		}
	} else {
		measureSampleTimes(s.cal, s.cfg.Workers, ns, deploy, s.cfg.InputShape)
	}
	s.cal.Ramp(swapRampWindows)
	s.mu.Lock()
	s.shared = ns
	s.info = info
	s.mu.Unlock()
	s.metrics.swaps.Add(1)
	return nil
}

// ModelInfo reports the identity of the artifact currently being served.
func (s *Server) ModelInfo() ModelInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// SLO returns the configured latency bound T.
func (s *Server) SLO() time.Duration { return s.cfg.SLO }

// Calibrator exposes the live per-rate timing estimates.
func (s *Server) Calibrator() *Calibrator { return s.cal }

// Recorder exposes the window-decision flight recorder: the last
// decisionLog scheduling decisions with their full inputs and the
// derived degradation reason.
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// Tracer exposes the per-query span tracer: stage and per-rate latency
// histograms plus the sampled trace ring behind /debug/trace.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// minRate is the lowest deployable rate under the current mode.
func (s *Server) minRate() float64 {
	if s.cfg.FixedRate > 0 {
		return s.cfg.FixedRate
	}
	return s.cfg.Rates.Min()
}

// sinceStart maps a clock reading onto the policy's time axis (seconds
// since the server started) — the coordinate system the backlog horizon
// lives in.
func (s *Server) sinceStart(t time.Time) float64 {
	return t.Sub(s.started).Seconds()
}

// admissionLimit is the deepest pending queue worth accepting given the
// current backlog. The pending queries will be decided at the next window
// close, roughly T/2 away; whatever estimated in-flight work outlasts even
// that moment is subtracted from the policy window, and the limit is
// QueueFactor times the lower-bound capacity of the remainder. With an
// empty horizon this is exactly the classic QueueFactor·Capacity(r_min);
// as parked windows pile up it shrinks to zero, so ErrOverloaded fires
// while the batch ticker is still ticking — the system sheds load when it
// is actually saturated, instead of counting only s.pending and going
// blind to the windows already in the dispatcher. Callers hold s.mu.
//
// An unbounded capacity (t(r_min) ≤ 0) means unbounded admission, and the
// float product must not be narrowed to int before that check —
// float64(MaxInt) converts to MinInt.
func (s *Server) admissionLimit(now time.Time) int {
	nextClose := s.sinceStart(now) + (s.cfg.SLO / 2).Seconds()
	budget := s.policy.Window - s.backlog.Ahead(nextClose)
	if budget <= 0 {
		return 0
	}
	factor := s.cfg.QueueFactor
	if s.circuitOpen {
		// Brownout: with the circuit open the pool is demonstrably not
		// delivering its calibrated throughput, so shed at half the normal
		// budget instead of trusting the model all the way to the edge.
		factor *= 0.5
	}
	limit := factor * float64(s.policy.CapacityWithin(s.minRate(), budget))
	if limit >= float64(math.MaxInt) {
		return math.MaxInt
	}
	return max(int(limit), 1)
}

// RetryAfter estimates how long a shed client should wait before its next
// attempt has a chance of admission: the time until the backlog horizon has
// drained far enough that a submission's next window close sees a positive
// budget again. Inverting admissionLimit: a submission at time s is budgeted
// budget = Window − Ahead(s + T/2), positive once
// s > horizon − T/2 − Window — so the wait is
// horizon − now − T/2 − Window, floored at one T/2 window (the soonest any
// resubmission can land in a fresh window anyway). The estimate rides the
// same model-only horizon admission sheds on, so it is exactly as honest as
// the rejection itself.
func (s *Server) RetryAfter(now time.Time) time.Duration {
	halfWindow := s.cfg.SLO / 2
	s.mu.Lock()
	horizon := s.backlog.Horizon()
	s.mu.Unlock()
	wait := horizon - s.sinceStart(now) - halfWindow.Seconds() - s.policy.Window
	if d := time.Duration(wait * float64(time.Second)); d > halfWindow {
		return d
	}
	return halfWindow
}

// noteShardFailure feeds the brownout circuit: consecutive shard failures
// (panics, watchdog-abandoned stalls) past circuitThreshold open it.
func (s *Server) noteShardFailure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	fails := int(s.circuitFails.Add(1))
	if !s.circuitOpen && fails >= circuitThreshold {
		s.circuitOpen = true
		s.metrics.circuitTrips.Add(1)
	}
}

// noteShardOK resets the consecutive-failure count; the circuit itself
// closes at the next window close, once the backlog horizon has drained.
// Every successful shard comes through here, so the healthy path is one
// atomic load and never touches the Submit lock.
func (s *Server) noteShardOK() {
	if s.circuitFails.Load() != 0 {
		s.circuitFails.Store(0)
	}
}

// CircuitOpen reports whether the brownout circuit is currently open.
func (s *Server) CircuitOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.circuitOpen
}

// Submit enqueues one sample for the next window. The returned channel
// receives exactly one Result. The input must match the configured
// single-sample shape exactly — element count alone is not enough (a
// [32, 3, 32] tensor is not a valid sample for a [3, 32, 32] model even
// though the sizes agree). Submissions are rejected with ErrOverloaded under
// backpressure — which accounts for the queries already dispatched and in
// flight, through the backlog horizon — and ErrStopped during shutdown.
func (s *Server) Submit(x *tensor.Tensor) (<-chan Result, error) {
	if x == nil || !slices.Equal(x.Shape, s.cfg.InputShape) {
		return nil, fmt.Errorf("server: input shape %v, model wants %v", shapeOf(x), s.cfg.InputShape)
	}
	now := s.clock.Now()
	q := &query{x: x, enqueued: now, done: make(chan Result, 1)}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil, ErrStopped
	}
	// The safety valve: when this many windows are genuinely unfinished,
	// the model's horizon has lost touch with reality (it drains with the
	// clock whether or not work completes) and cannot be trusted to bound
	// the queue. Checked after stopping so shutdown keeps its error
	// contract (ErrStopped, not a retryable ErrOverloaded).
	if s.sched.depth() >= s.cfg.MaxBacklogWindows ||
		len(s.pending) >= s.admissionLimit(now) {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, ErrOverloaded
	}
	s.pending = append(s.pending, q)
	s.mu.Unlock()
	return q.done, nil
}

func shapeOf(x *tensor.Tensor) []int {
	if x == nil {
		return nil
	}
	return x.Shape
}

// Predict is the blocking convenience wrapper: Submit plus wait. A query
// that was accepted but failed (shard panic, watchdog abandonment, expired
// deadline) returns its Result with the failure repeated as the error.
func (s *Server) Predict(x *tensor.Tensor) (Result, error) {
	ch, err := s.Submit(x)
	if err != nil {
		return Result{}, err
	}
	res := <-ch
	return res, res.Err
}

// QueueDepth reports the number of queries waiting for the next window.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// InFlight reports the number of queries dispatched but not yet answered.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Stats snapshots the server's aggregate counters.
func (s *Server) Stats() Stats {
	now := s.clock.Now()
	st := s.metrics.snapshot(now.Sub(s.started))
	s.mu.Lock()
	st.Windows = s.winSeq
	st.QueueDepth = len(s.pending)
	st.InFlightQueries = s.inflight
	st.BacklogSeconds = s.backlog.Ahead(s.sinceStart(now))
	st.CircuitOpen = s.circuitOpen
	st.ModelEpoch = s.info.Epoch
	st.ModelCRC = s.info.CRC
	shared := s.shared
	s.mu.Unlock()
	st.SwapRampWindows = s.cal.rampRemaining()
	if fired := faults.Counts(); len(fired) > 0 {
		st.FaultsFired = make(map[string]int64, len(fired))
		for p, n := range fired {
			st.FaultsFired[string(p)] = n
		}
	}
	st.BacklogWindows = s.sched.depth()
	st.SampleTimes = s.cal.Snapshot()
	es := shared.Stats()
	st.PackCacheBytes, st.EngineTier = es.PackCacheBytes, es.Tier
	for _, wk := range s.workers {
		st.ArenaBytes += wk.arena.HighWaterBytes()
	}
	st.GemmKernels = tensor.GemmStats().Kernels
	st.Latency = s.tracer.Total()
	for i := 0; i < obs.NumStages; i++ {
		st.StageLatency = append(st.StageLatency, StageLatency{
			Stage: obs.StageNames[i], Hist: s.tracer.Stage(i),
		})
	}
	for _, r := range s.tracer.Rates() {
		if h, ok := s.tracer.Rate(r); ok && h.Count > 0 {
			st.RateLatency = append(st.RateLatency, RateLatency{Rate: r, Hist: h})
		}
	}
	return st
}

// Stop shuts down gracefully: no new submissions, the pending queue is
// flushed as a final batch, in-flight batches finish, then the goroutines
// exit. Safe to call more than once.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		s.mu.Unlock()
		close(s.quit)
		<-s.sched.done
	})
}

// batchLoop closes a window every T/2 tick: it drains the pending queue,
// resolves the backlog-aware rate for the batch it found, and hands the job
// to the scheduler so processing of this window overlaps collection of the
// next — the pipelining that makes T/2 batching meet a T bound. The
// handoff never blocks, so the ticker keeps closing windows no matter how
// far processing has fallen behind.
func (s *Server) batchLoop() {
	ticks, stopTicker := s.clock.Ticker(s.cfg.SLO / 2)
	defer stopTicker()
	for {
		select {
		case <-s.quit:
			s.flush()
			s.sched.shutdown()
			return
		case <-ticks:
			// The watchdog rides the window ticker: one scan per T/2 on
			// the injected clock, so fake-clock tests drive it
			// deterministically and an idle server still notices a wedged
			// shard.
			s.sched.scanStuck(s.clock.Now())
			s.closeWindow()
			AckTick(s.clock)
		}
	}
}

// closeWindow forms the current batch, takes its backlog-aware scheduling
// decision, and enqueues it for processing.
func (s *Server) closeWindow() {
	now := s.clock.Now()
	s.mu.Lock()
	// Every tick consumes a window sequence number, empty or not, so the
	// live recorder's window indices line up with the simulation's tick
	// indices in lockstep runs.
	seq := s.winSeq
	s.winSeq++
	// Circuit recovery: a shard has succeeded since the trip (fails reset)
	// and the backlog horizon has drained past this close — the brownout
	// ladder's floor is no longer needed.
	if s.circuitOpen && s.circuitFails.Load() == 0 && s.backlog.Ahead(s.sinceStart(now)) == 0 {
		s.circuitOpen = false
	}
	batch := s.pending
	if len(batch) == 0 {
		s.mu.Unlock()
		return
	}
	s.pending = nil
	if k := len(s.spare); k > 0 {
		s.pending, s.spare = s.spare[k-1], s.spare[:k-1]
	}
	d := s.decide(len(batch), batch[0].enqueued, now)
	s.inflight += len(batch)
	// The window captures the current weight set: a Swap after this point
	// affects only later windows (see batchJob.shared).
	shared := s.shared
	s.mu.Unlock()

	for _, q := range batch {
		q.windowClose = now
	}
	s.recorder.Record(d.Record(s.policy, seq, len(batch), s.sinceStart(now)))
	s.metrics.recordDecision(d)
	job := &batchJob{queries: batch, decision: d, shared: shared, window: seq}
	s.metrics.observeBacklog(int64(s.sched.enqueue(job)))
}

// decide maps the window onto the policy's time axis and budgets it against
// the deadline of its oldest query: slack = Headroom·(deadline − now) minus
// the estimated work already dispatched ahead of it. The same
// serving.Backlog arithmetic runs in the clock-free simulation, which is
// what the lockstep test pins. Callers hold s.mu.
func (s *Server) decide(n int, oldest, now time.Time) serving.Decision {
	nowF := s.sinceStart(now)
	// Headroom derates the usable slack exactly as it derates the policy
	// window: the reserve pays for intake, GC and OS jitter.
	deadline := nowF + oldest.Add(s.cfg.SLO).Sub(now).Seconds()*s.cfg.Headroom
	if s.cfg.FixedRate > 0 {
		return s.backlog.DecideRate(s.policy, n, s.cfg.FixedRate, deadline, nowF)
	}
	if s.circuitOpen {
		// Brownout floor: consecutive shard failures mean the calibrated
		// t(r) cannot be trusted, so serve at the cheapest rate — the
		// guaranteed floor of the degradation ladder — until the circuit
		// closes. Horizon bookkeeping is unchanged, so recovery rides the
		// normal backlog drain.
		d := s.backlog.DecideRate(s.policy, n, s.minRate(), deadline, nowF)
		d.Circuit = true
		return d
	}
	return s.backlog.Decide(s.policy, n, deadline, nowF)
}

// flush drains whatever is pending at shutdown so no query goes unanswered.
func (s *Server) flush() {
	s.closeWindow()
}

// reply answers the queries of one shard, whose owner — the worker that ran
// it, the watchdog that abandoned it, or enqueue on a closed scheduler — has
// stamped them, and folds them into the counters. Latency is measured against
// the injected clock — the same source the windows tick on — and includes the
// queueing delay spent behind the windows, and this window's own shards,
// ahead of it.
func (s *Server) reply(job *batchJob, shard []*query) {
	s.mu.Lock()
	s.inflight -= len(shard)
	s.mu.Unlock()
	if job.remaining.Add(-1) == 0 {
		s.sched.finish(job)
	}

	// Count first, answer second: whoever holds a reply finds it already
	// in the counters (a /metrics read after a /predict reply, say).
	now := s.clock.Now()
	misses, failed := int64(0), int64(0)
	for _, q := range shard {
		if now.Sub(q.enqueued) > s.cfg.SLO {
			misses++
		}
		if q.err != nil {
			failed++
		}
	}
	s.metrics.sloMisses.Add(misses)
	s.metrics.failedQueries.Add(failed)

	for _, q := range shard {
		latency := now.Sub(q.enqueued)
		s.tracer.Observe(job.decision.Rate, job.window,
			q.enqueued, q.windowClose, q.computeStart, q.computeEnd, now)
		res := Result{
			Rate:     job.decision.Rate,
			Latency:  latency,
			SLOMiss:  latency > s.cfg.SLO,
			Queued:   q.windowClose.Sub(q.enqueued),
			Dispatch: q.computeStart.Sub(q.windowClose),
			Compute:  q.computeEnd.Sub(q.computeStart),
			Settle:   now.Sub(q.computeEnd),
		}
		// A failed query carries its error and no output. q.out is not
		// read on this path: an abandoned shard's zombie worker may still
		// be writing it, and the error outcome is already decided.
		if q.err != nil {
			res.Err = q.err
		} else {
			res.Output = &q.out
		}
		q.done <- res
	}
	if job.unreplied.Add(-1) == 0 {
		// Cleared so the answered queries are not pinned until reuse.
		clear(job.queries)
		s.mu.Lock()
		if len(s.spare) < 2 {
			s.spare = append(s.spare, job.queries[:0])
		}
		s.mu.Unlock()
	}
}

// run forwards one shard as a single batch at the given rate through the
// given shared zero-copy inference path — one batched GEMM per dense layer,
// one per sample per convolution — then scatters the output rows back to the
// queries. Batch and activation buffers come from the worker's arena (the
// batch is taken before the pass, so the pass never releases it); the
// results outlive the pass, so they are heap-allocated — as one contiguous
// block per shard (one data allocation instead of one per query), with each
// query's out a per-row view of the block.
func (wk *worker) run(shared *slicing.Shared, shard []*query, rate float64, inputShape []int) {
	n := len(shard)
	shape := [8]int{n}
	x := wk.arena.GetUninit(append(shape[:1], inputShape...)...)
	d := len(shard[0].x.Data)
	for i, q := range shard {
		copy(x.Data[i*d:(i+1)*d], q.x.Data)
	}
	y := shared.Infer(rate, x, wk.arena)
	classes := y.Size() / n
	block := make([]float64, n*classes)
	copy(block, y.Data[:n*classes])
	for i, q := range shard {
		q.outShape[0] = classes
		q.out = tensor.Tensor{Shape: q.outShape[:], Data: block[i*classes : (i+1)*classes]}
	}
	wk.arena.Reset()
}
