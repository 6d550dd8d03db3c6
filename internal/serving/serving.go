// Package serving implements the dynamic-workload deployment scheme of
// Section 4.1: queries arrive as a stream under a latency constraint T; the
// server builds a mini-batch every T/2 and picks the largest slice rate r
// satisfying n·t(r) ≤ T/2 (Equation 3), so every query is answered within T
// and no computational resource sits idle during the processing window.
//
// The Equation-3 guarantee assumes every batch fits its window. The moment
// one overruns, windows queue behind it, and a window-naive policy keeps
// budgeting a fresh T/2 while delay silently compounds. The simulation
// therefore carries the same Backlog model as the live server: each window
// is budgeted against its remaining deadline slack, degradations are
// recorded where rates fall because of backlog, and SLO violations include
// the cascade — a small window behind an overrun can be infeasible even
// though its batch alone would fit.
package serving

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/obs"
	"modelslicing/internal/slicing"
)

// Config parameterizes the simulated serving system. All durations are in
// abstract time units (the simulation is clock-free and deterministic).
type Config struct {
	// LatencySLO is T: every query must be answered within this bound.
	LatencySLO float64
	// FullSampleTime is t: per-sample inference time of the full model.
	FullSampleTime float64
	// Rates are the deployable slice rates.
	Rates slicing.RateList
	// CostRatio maps a rate to its relative cost; nil means r² (Equation 3).
	CostRatio func(r float64) float64
	// AccuracyAt maps a rate to its measured accuracy, used to report the
	// quality delivered under load; nil disables quality accounting.
	AccuracyAt func(r float64) float64
	// Recorder, when non-nil, receives one obs.DecisionRecord per non-empty
	// window — the same flight-recorder type the live server writes, so a
	// lockstep test can demand identical explanations from both paths.
	Recorder *obs.Recorder
}

// TickStats records one T/2 scheduling window.
type TickStats struct {
	Arrivals   int
	Rate       float64 // slice rate chosen for the batch
	WorkTime   float64 // processing time consumed
	Infeasible bool    // the batch misses its deadline even at the chosen rate
	Degraded   bool    // backlog forced a lower rate than an empty pool would pick
	Slack      float64 // remaining deadline budget the rate decision ran against
	Ahead      float64 // estimated in-flight work queued ahead of this window
	Completion float64 // when the batch finishes on the work-conserving timeline
}

// Stats aggregates a simulation run.
type Stats struct {
	Ticks            []TickStats
	Processed        int
	SLOViolations    int
	DegradedWindows  int // windows served below the empty-pool rate because of backlog
	RateHist         map[float64]int
	MeanRate         float64
	Utilization      float64 // work time / makespan (trace duration, extended by draining backlog)
	WeightedAccuracy float64 // accuracy averaged over queries at served rates
	PeakArrivals     int
	TroughArrivals   int
}

// Volatility returns peak/trough arrivals — the workload swing the system
// absorbed (the paper demonstrates up to 16×).
func (s Stats) Volatility() float64 {
	if s.TroughArrivals == 0 {
		return math.Inf(1)
	}
	return float64(s.PeakArrivals) / float64(s.TroughArrivals)
}

// Policy returns the Equation-3 policy this configuration describes: the
// T/2 window and the per-sample cost curve t(r) = FullSampleTime·CostRatio(r)
// (r² when CostRatio is nil). Simulate and the live server in internal/server
// both schedule through this type, so the two paths cannot drift.
func (cfg Config) Policy() Policy {
	if cfg.LatencySLO <= 0 || cfg.FullSampleTime <= 0 {
		panic(fmt.Sprintf("serving: invalid config %+v", cfg))
	}
	costRatio := cfg.CostRatio
	if costRatio == nil {
		costRatio = func(r float64) float64 { return r * r }
	}
	return Policy{
		Rates:      cfg.Rates,
		Window:     cfg.LatencySLO / 2,
		SampleTime: func(r float64) float64 { return cfg.FullSampleTime * costRatio(r) },
	}
}

// Simulate runs the T/2 batching policy over per-window arrival counts,
// with the backlog-aware deadline budgeting the live server uses: window k
// opens at k·W, closes at (k+1)·W, and its oldest query's deadline is
// k·W + T. The rate decision for each window runs against that deadline
// minus the estimated work still in flight ahead of it (Backlog.Decide), so
// an overrun cascades visibly — later windows degrade or go infeasible —
// instead of every window being budgeted a fresh, fictitious T/2.
func Simulate(cfg Config, arrivals []int) Stats {
	policy := cfg.Policy()
	return runWindows(cfg, policy, arrivals, 0, func(b *Backlog, n int, deadline, closeT float64) (Decision, int) {
		d := b.Decide(policy, n, deadline, closeT)
		if d.Feasible {
			return d, 0
		}
		// The batch finishes past its deadline: every query in it misses the
		// latency bound — including windows dragged past their deadline
		// purely by the backlog ahead of them.
		return d, n
	})
}

// runWindows is the window loop Simulate and FixedCapacityBaseline share.
// decide returns a non-empty window's decision and how many of its n queries
// miss the SLO; idleRate is the rate recorded for an empty window.
func runWindows(cfg Config, policy Policy, arrivals []int, idleRate float64,
	decide func(b *Backlog, n int, deadline, closeT float64) (Decision, int)) Stats {
	window := policy.Window
	stats := Stats{RateHist: make(map[float64]int), TroughArrivals: math.MaxInt}
	var backlog Backlog
	var sumRateWeighted, sumAcc, totalWork float64
	for k, n := range arrivals {
		tick := TickStats{Arrivals: n, Rate: idleRate}
		if n > 0 {
			closeT := float64(k+1) * window
			deadline := float64(k)*window + cfg.LatencySLO
			d, misses := decide(&backlog, n, deadline, closeT)
			if cfg.Recorder != nil {
				cfg.Recorder.Record(d.Record(policy, int64(k), n, closeT))
			}
			tick.Rate = d.Rate
			tick.Infeasible = !d.Feasible
			tick.Degraded = d.Degraded
			tick.Slack, tick.Ahead = d.Slack, d.Ahead
			tick.WorkTime, tick.Completion = d.Work, d.Completion
			stats.SLOViolations += misses
			if tick.Degraded {
				stats.DegradedWindows++
			}
			stats.Processed += n
			stats.RateHist[d.Rate] += n
			sumRateWeighted += d.Rate * float64(n)
			if cfg.AccuracyAt != nil {
				sumAcc += cfg.AccuracyAt(d.Rate) * float64(n)
			}
			totalWork += tick.WorkTime
		}
		stats.PeakArrivals = max(stats.PeakArrivals, n)
		stats.TroughArrivals = min(stats.TroughArrivals, n)
		stats.Ticks = append(stats.Ticks, tick)
	}
	if stats.Processed > 0 {
		stats.MeanRate = sumRateWeighted / float64(stats.Processed)
		if cfg.AccuracyAt != nil {
			stats.WeightedAccuracy = sumAcc / float64(stats.Processed)
		}
	}
	if len(arrivals) > 0 {
		stats.Utilization = utilization(totalWork, window, len(arrivals), backlog.Horizon())
	} else {
		stats.TroughArrivals = 0
	}
	return stats
}

// utilization is work performed over makespan. Work is conserved on one
// pool, so when the trace ends with backlog still draining the denominator
// extends to the completion horizon — both runners report a true busy
// fraction in [0, 1] instead of the >1 impossible number a fixed
// windows·W denominator produces under overload.
func utilization(totalWork, window float64, windows int, horizon float64) float64 {
	makespan := math.Max(window*float64(windows), horizon)
	if makespan <= 0 {
		return 0
	}
	return totalWork / makespan
}

// DiurnalWorkload generates per-window Poisson arrival counts whose rate
// follows a day-shaped curve between base and base·peakRatio, with optional
// short bursts of burstRatio× the current rate — the "peak workload could be
// 10x higher than the average cases" scenario of the paper's introduction.
func DiurnalWorkload(windows int, base float64, peakRatio float64, burstProb float64,
	burstRatio float64, rng *rand.Rand) []int {
	out := make([]int, windows)
	for i := range out {
		phase := 2 * math.Pi * float64(i) / float64(windows)
		// Raised sinusoid in [1, peakRatio].
		lambda := base * (1 + (peakRatio-1)*(1-math.Cos(phase))/2)
		if burstProb > 0 && rng.Float64() < burstProb {
			lambda *= burstRatio
		}
		out[i] = poisson(lambda, rng)
	}
	return out
}

// poisson draws a Poisson sample (Knuth for small λ, normal approx above).
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// FixedCapacityBaseline reports how a single fixed-width model of the given
// rate handles the same arrivals: queries beyond what the window's remaining
// slack can absorb miss the SLO. This quantifies the paper's motivating
// trade-off — a model provisioned for the mean workload fails at the peak,
// one provisioned for the peak wastes resources off-peak.
//
// Overflow semantics: excess queries are processed late, not dropped, so a
// window's WorkTime is the full n·t(r) — it can exceed the window, and the
// spilled work extends the same completion horizon Simulate tracks. A
// window's violations are the queries beyond CapacityWithin(r, slack) where
// slack is the deadline budget left after the backlog ahead — the identical
// accounting Simulate and the live fixed arm (Backlog.DecideRate) use, so a
// window dragged past its deadline purely by an earlier overrun counts its
// misses here too. With a clear horizon this reduces to the classic
// n − Capacity(r). Utilization divides by the makespan, so both runners
// report a busy fraction in [0, 1] under any load.
func FixedCapacityBaseline(cfg Config, fixedRate float64, arrivals []int) Stats {
	policy := cfg.Policy()
	stats := runWindows(cfg, policy, arrivals, fixedRate, func(b *Backlog, n int, deadline, closeT float64) (Decision, int) {
		d := b.DecideRate(policy, n, fixedRate, deadline, closeT)
		if d.Feasible {
			return d, 0
		}
		// The fixed model processes overflow late rather than dropping it:
		// only the spill past what the slack holds misses the SLO.
		return d, n - policy.CapacityWithin(fixedRate, d.Slack)
	})
	if stats.Processed > 0 {
		// Every query ran at fixedRate: report it as is, not as a re-summed
		// mean that rounding could move.
		stats.MeanRate = fixedRate
	}
	return stats
}
