package server

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modelslicing/internal/obs"
	"modelslicing/internal/serving"
	"modelslicing/internal/tensor"
)

// metrics aggregates the server's counters. Hot-path counts are atomics;
// the per-rate histogram and quality accumulators take a mutex only once per
// batch, never per query.
type metrics struct {
	poolSize    int           // workers in the pool, for the utilization denominator
	processed   atomic.Int64  // queries answered
	rejected    atomic.Int64  // queries refused by admission control
	sloMisses   atomic.Int64  // answered queries whose latency exceeded T
	batches     atomic.Int64  // batches dispatched
	infeasible  atomic.Int64  // batches that could not meet their deadline at any rate
	degraded    atomic.Int64  // batches served below the empty-pool rate because of backlog
	busyNanos   atomic.Int64  // worker·nanoseconds spent processing (elapsed × granted workers)
	peakBacklog atomic.Int64  // deepest windows-in-flight watermark
	lastSlack   atomic.Uint64 // float64 bits: remaining slack of the last closed window
	lastAhead   atomic.Uint64 // float64 bits: estimated in-flight work ahead of the last closed window

	// Failure-domain counters (the fault-tolerant serving core).
	workerPanics    atomic.Int64 // shards that panicked and were recovered
	stuckShards     atomic.Int64 // shards the watchdog abandoned
	workersReplaced atomic.Int64 // fresh workers spawned for abandoned ones
	expiredDropped  atomic.Int64 // queries dropped at dispatch with an expired deadline
	failedQueries   atomic.Int64 // queries answered with an error Result
	circuitTrips    atomic.Int64 // times the brownout circuit opened
	circuitPinned   atomic.Int64 // windows rate-pinned by an open circuit
	swaps           atomic.Int64 // live model swaps completed (Server.Swap)

	mu       sync.Mutex
	rateHist map[float64]int64 // rate → queries served at it
	sumRate  float64           // Σ rate·queries, for the mean served rate
	sumAcc   float64           // Σ accuracy(rate)·queries, when configured
}

func newMetrics(poolSize int) *metrics {
	return &metrics{poolSize: max(poolSize, 1), rateHist: make(map[float64]int64)}
}

// recordDecision publishes one window's scheduling inputs the moment the
// decision is taken (the batch may settle much later).
func (m *metrics) recordDecision(d serving.Decision) {
	m.lastSlack.Store(math.Float64bits(d.Slack))
	m.lastAhead.Store(math.Float64bits(d.Ahead))
	if d.Circuit {
		m.circuitPinned.Add(1)
	}
}

// observeBacklog tracks the deepest windows-in-flight watermark.
func (m *metrics) observeBacklog(depth int64) {
	for {
		cur := m.peakBacklog.Load()
		if depth <= cur || m.peakBacklog.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// recordBatch folds one processed batch into the aggregates. Busy time is
// credited in worker·nanoseconds (summed across the window's shards), so
// concurrent windows sharing the pool cannot push utilization past 1.
func (m *metrics) recordBatch(n int, d serving.Decision, workerBusy time.Duration, acc float64, haveAcc bool) {
	m.processed.Add(int64(n))
	m.batches.Add(1)
	if !d.Feasible {
		m.infeasible.Add(1)
	}
	if d.Degraded {
		m.degraded.Add(1)
	}
	m.busyNanos.Add(int64(workerBusy))
	m.mu.Lock()
	m.rateHist[d.Rate] += int64(n)
	m.sumRate += d.Rate * float64(n)
	if haveAcc {
		m.sumAcc += acc * float64(n)
	}
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of a live server's aggregates — the
// live-path analogue of serving.Stats, measured rather than simulated.
type Stats struct {
	Processed         int64
	Rejected          int64
	SLOMisses         int64
	Batches           int64
	InfeasibleBatches int64
	// DegradedBatches counts windows served below the rate an empty pool
	// would have picked, because backlog ate their deadline slack — the
	// cascade made visible instead of surfacing as surprise SLO misses.
	DegradedBatches int64
	// WorkerPanics counts shards that panicked mid-compute and were
	// recovered; StuckShards counts shards the watchdog abandoned, and
	// WorkersReplaced the fresh workers spawned to keep the pool whole.
	WorkerPanics    int64
	StuckShards     int64
	WorkersReplaced int64
	// ExpiredDropped counts queries dropped at dispatch because their SLO
	// deadline had already passed; FailedQueries counts every query
	// answered with an error Result (panic, stuck, expired, stopped).
	ExpiredDropped int64
	FailedQueries  int64
	// CircuitOpen reports the brownout circuit's current state;
	// CircuitTrips how many times it has opened, and CircuitPinnedWindows
	// how many windows were served rate-pinned under it.
	CircuitOpen          bool
	CircuitTrips         int64
	CircuitPinnedWindows int64
	// Swaps counts completed live model swaps; SwapRampWindows is how many
	// observed windows of the post-swap recalibration ramp remain (zero in
	// steady state, and always on a static calibrator). ModelEpoch and
	// ModelCRC identify the artifact currently serving (see ModelInfo).
	Swaps           int64
	SwapRampWindows int
	ModelEpoch      uint64
	ModelCRC        uint32
	// FaultsFired is the process-wide fault-injection registry's fired
	// counts per point (empty when the chaos harness is disarmed).
	FaultsFired map[string]int64
	RateHist    map[float64]int64
	MeanRate    float64
	// WeightedAccuracy averages the configured per-rate accuracy over all
	// served queries (zero when Config.AccuracyAt is nil).
	WeightedAccuracy float64
	// Utilization is the worker pool's mean busy fraction since start:
	// worker·time spent processing over pool·time elapsed, in [0, 1] even
	// when backlogged windows run concurrently on pool partitions.
	Utilization float64
	// QueueDepth is the number of queries waiting for the next window.
	QueueDepth int
	// InFlightQueries is the number of queries dispatched but not yet
	// answered; admission control accounts for them through the backlog
	// horizon.
	InFlightQueries int
	// BacklogWindows is the number of closed windows queued or executing
	// in the scheduler right now; PeakBacklogWindows is the deepest that
	// has been.
	BacklogWindows     int
	PeakBacklogWindows int64
	// BacklogSeconds is the estimated in-flight work ahead of a window
	// closing now.
	BacklogSeconds float64
	// LastSlackSeconds / LastAheadSeconds are the deadline slack and
	// backlog the most recent window's rate decision ran against.
	LastSlackSeconds float64
	LastAheadSeconds float64
	// SampleTimes is the calibrator's current per-rate t(r) in seconds.
	SampleTimes map[float64]float64
	// PackCacheBytes is the resident per-width weight-pack memory the
	// shared model is holding for the packed GEMM path.
	PackCacheBytes int64
	// EngineTier is the GEMM engine tier inference runs at.
	EngineTier tensor.EngineTier
	// GemmKernels are the process-wide per-tier micro-kernel dispatch
	// counters (vector vs scalar), shared by every engine in the process.
	GemmKernels [tensor.NumTiers]tensor.KernelCounters
	// Windows is the number of T/2 scheduling windows closed so far
	// (empty windows included — every tick consumes one).
	Windows int64
	// ArenaBytes is the summed high-water activation-arena footprint across
	// the worker pool, both halves of each arena included: per worker, the
	// largest shard batch plus two layers' activations and scratch (a
	// served pass releases the rest as it goes).
	ArenaBytes int64
	// Latency is the all-queries submission-to-reply latency histogram;
	// StageLatency breaks it down per pipeline stage and RateLatency per
	// served slice rate (rates that served no queries are omitted).
	Latency      obs.HistSnapshot
	StageLatency []StageLatency
	RateLatency  []RateLatency
}

// StageLatency is one pipeline stage's latency histogram snapshot.
type StageLatency struct {
	Stage string
	Hist  obs.HistSnapshot
}

// RateLatency is one slice rate's total-latency histogram snapshot.
type RateLatency struct {
	Rate float64
	Hist obs.HistSnapshot
}

// snapshot assembles Stats; elapsed is clock time since the server started.
func (m *metrics) snapshot(elapsed time.Duration) Stats {
	s := Stats{
		Processed:            m.processed.Load(),
		Rejected:             m.rejected.Load(),
		SLOMisses:            m.sloMisses.Load(),
		Batches:              m.batches.Load(),
		InfeasibleBatches:    m.infeasible.Load(),
		DegradedBatches:      m.degraded.Load(),
		WorkerPanics:         m.workerPanics.Load(),
		StuckShards:          m.stuckShards.Load(),
		WorkersReplaced:      m.workersReplaced.Load(),
		ExpiredDropped:       m.expiredDropped.Load(),
		FailedQueries:        m.failedQueries.Load(),
		CircuitTrips:         m.circuitTrips.Load(),
		CircuitPinnedWindows: m.circuitPinned.Load(),
		Swaps:                m.swaps.Load(),
		PeakBacklogWindows:   m.peakBacklog.Load(),
		LastSlackSeconds:     math.Float64frombits(m.lastSlack.Load()),
		LastAheadSeconds:     math.Float64frombits(m.lastAhead.Load()),
		RateHist:             make(map[float64]int64),
	}
	m.mu.Lock()
	for r, n := range m.rateHist {
		s.RateHist[r] = n
	}
	sumRate, sumAcc := m.sumRate, m.sumAcc
	m.mu.Unlock()
	if s.Processed > 0 {
		s.MeanRate = sumRate / float64(s.Processed)
		s.WeightedAccuracy = sumAcc / float64(s.Processed)
	}
	if elapsed > 0 {
		s.Utilization = float64(m.busyNanos.Load()) / (float64(elapsed) * float64(m.poolSize))
	}
	return s
}

// prometheus renders the snapshot in the Prometheus text exposition format.
func (s Stats) prometheus() string {
	var b []byte
	counter := func(name, help string, v int64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)...)
	}
	gauge := func(name, help string, v float64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)...)
	}
	counter("msserver_queries_processed_total", "Queries answered.", s.Processed)
	counter("msserver_queries_rejected_total", "Queries refused by admission control.", s.Rejected)
	counter("msserver_slo_misses_total", "Answered queries that exceeded the latency SLO.", s.SLOMisses)
	counter("msserver_batches_total", "Batches dispatched.", s.Batches)
	counter("msserver_infeasible_batches_total", "Batches that could not meet their deadline at any rate.", s.InfeasibleBatches)
	counter("msserver_degraded_batches_total", "Batches served below the empty-pool rate because of backlog.", s.DegradedBatches)
	counter("msserver_worker_panics_total", "Worker shards that panicked mid-compute and were recovered.", s.WorkerPanics)
	counter("msserver_stuck_shards_total", "Worker shards abandoned by the liveness watchdog.", s.StuckShards)
	counter("msserver_workers_replaced_total", "Fresh workers spawned to replace abandoned ones.", s.WorkersReplaced)
	counter("msserver_expired_dropped_total", "Queries dropped at dispatch because their deadline had already passed.", s.ExpiredDropped)
	counter("msserver_failed_queries_total", "Queries answered with an error result.", s.FailedQueries)
	circuit := 0.0
	if s.CircuitOpen {
		circuit = 1
	}
	gauge("msserver_circuit_state", "1 while the brownout circuit is open (rate pinned to the floor), 0 when closed.", circuit)
	counter("msserver_circuit_trips_total", "Times the brownout circuit opened on consecutive shard failures.", s.CircuitTrips)
	counter("msserver_circuit_pinned_windows_total", "Windows served rate-pinned under an open circuit.", s.CircuitPinnedWindows)
	counter("msserver_swaps_total", "Live model swaps completed.", s.Swaps)
	gauge("msserver_swap_ramp_windows", "Observed windows left in the post-swap recalibration ramp.", float64(s.SwapRampWindows))
	gauge("msserver_model_epoch", "Training epoch of the checkpoint currently serving.", float64(s.ModelEpoch))
	gauge("msserver_model_checkpoint_crc32", "Header CRC32 of the checkpoint currently serving (content identity; 0 for in-process models).", float64(s.ModelCRC))
	if len(s.FaultsFired) > 0 {
		points := make([]string, 0, len(s.FaultsFired))
		for p := range s.FaultsFired {
			points = append(points, p)
		}
		sort.Strings(points)
		b = append(b, "# HELP msserver_fault_fired_total Injected faults fired per fault point (chaos harness).\n# TYPE msserver_fault_fired_total counter\n"...)
		for _, p := range points {
			b = append(b, fmt.Sprintf("msserver_fault_fired_total{point=%q} %d\n", p, s.FaultsFired[p])...)
		}
	}
	gauge("msserver_queue_depth", "Queries waiting for the next window.", float64(s.QueueDepth))
	gauge("msserver_inflight_queries", "Queries dispatched but not yet answered.", float64(s.InFlightQueries))
	gauge("msserver_backlog_windows", "Closed windows queued or executing in the scheduler.", float64(s.BacklogWindows))
	gauge("msserver_backlog_peak_windows", "Deepest windows-in-flight watermark since start.", float64(s.PeakBacklogWindows))
	gauge("msserver_backlog_seconds", "Estimated in-flight work ahead of a window closing now.", s.BacklogSeconds)
	gauge("msserver_window_slack_seconds", "Deadline slack the most recent window's rate decision ran against.", s.LastSlackSeconds)
	gauge("msserver_window_ahead_seconds", "Backlog ahead of the most recent window at decision time.", s.LastAheadSeconds)
	gauge("msserver_mean_rate", "Query-weighted mean served slice rate.", s.MeanRate)
	gauge("msserver_utilization", "Worker pool mean busy fraction (worker time over pool time).", s.Utilization)
	gauge("msserver_pack_cache_bytes", "Resident per-width weight-pack memory for the packed GEMM path.", float64(s.PackCacheBytes))
	counter("msserver_windows_total", "T/2 scheduling windows closed (empty windows included).", s.Windows)
	gauge("msserver_arena_bytes", "Summed high-water activation-arena footprint across the worker pool.", float64(s.ArenaBytes))

	b = append(b, "# HELP msserver_engine_tier Active GEMM engine tier (1 on the active tier's series).\n# TYPE msserver_engine_tier gauge\n"...)
	for tier := tensor.EngineTier(0); tier < tensor.NumTiers; tier++ {
		active := 0
		if tier == s.EngineTier {
			active = 1
		}
		b = append(b, fmt.Sprintf("msserver_engine_tier{tier=%q} %d\n", tier, active)...)
	}
	b = append(b, "# HELP msserver_gemm_kernel_total Process-wide GEMM micro-kernel dispatches per engine tier (all engines in this process, calibration included).\n# TYPE msserver_gemm_kernel_total counter\n"...)
	for tier := tensor.EngineTier(0); tier < tensor.NumTiers; tier++ {
		b = append(b, fmt.Sprintf("msserver_gemm_kernel_total{tier=%q,kernel=\"vector\"} %d\n", tier, s.GemmKernels[tier].Vector)...)
		b = append(b, fmt.Sprintf("msserver_gemm_kernel_total{tier=%q,kernel=\"scalar\"} %d\n", tier, s.GemmKernels[tier].Scalar)...)
	}

	rates := make([]float64, 0, len(s.RateHist))
	for r := range s.RateHist {
		rates = append(rates, r)
	}
	sort.Float64s(rates)
	b = append(b, "# HELP msserver_rate_queries_total Queries served per slice rate.\n# TYPE msserver_rate_queries_total counter\n"...)
	for _, r := range rates {
		b = append(b, fmt.Sprintf("msserver_rate_queries_total{rate=%q} %d\n", fmt.Sprintf("%g", r), s.RateHist[r])...)
	}
	if len(s.SampleTimes) > 0 {
		rates = rates[:0]
		for r := range s.SampleTimes {
			rates = append(rates, r)
		}
		sort.Float64s(rates)
		b = append(b, "# HELP msserver_sample_time_seconds Calibrated per-sample inference time per rate.\n# TYPE msserver_sample_time_seconds gauge\n"...)
		for _, r := range rates {
			b = append(b, fmt.Sprintf("msserver_sample_time_seconds{rate=%q} %g\n", fmt.Sprintf("%g", r), s.SampleTimes[r])...)
		}
	}

	b = obs.PromHistogram(b, "msserver_query_latency_seconds",
		"Submission-to-reply latency of answered queries.",
		[]obs.LabeledHist{{Labels: "", Hist: s.Latency}})
	stages := make([]obs.LabeledHist, 0, len(s.StageLatency))
	for _, sl := range s.StageLatency {
		stages = append(stages, obs.LabeledHist{Labels: fmt.Sprintf("stage=%q", sl.Stage), Hist: sl.Hist})
	}
	b = obs.PromHistogram(b, "msserver_stage_latency_seconds",
		"Per-stage query latency: queue (batch formation), dispatch (shard-queue wait), compute, settle.",
		stages)
	perRate := make([]obs.LabeledHist, 0, len(s.RateLatency))
	for _, rl := range s.RateLatency {
		perRate = append(perRate, obs.LabeledHist{Labels: fmt.Sprintf("rate=%q", fmt.Sprintf("%g", rl.Rate)), Hist: rl.Hist})
	}
	b = obs.PromHistogram(b, "msserver_rate_latency_seconds",
		"Submission-to-reply latency per served slice rate.",
		perRate)
	return string(b)
}
