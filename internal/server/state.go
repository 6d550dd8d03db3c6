package server

import (
	"net/http"
	"strconv"
	"time"
)

// RateTime is one row of the calibrated t(r) table in a State snapshot.
// (A JSON object keyed by rate would force float-keyed maps on every
// consumer; an explicit array does not.)
type RateTime struct {
	Rate    float64 `json:"rate"`
	Seconds float64 `json:"seconds"`
}

// State is the cheap coordinator-facing snapshot served at GET /state: just
// enough for a fleet coordinator to rebuild this replica's Equation-3 model
// remotely — the calibrated t(r) table and policy window to reconstruct its
// serving.Policy, and the backlog horizon to seed a serving.Backlog — plus
// the health bits (circuit, stopping) that feed routing penalties. Every
// field is a scalar or a short array; polling it each health-check interval
// costs the replica two mutex acquisitions and one small JSON encode.
type State struct {
	// SLOms and WindowS describe the policy axis: the latency bound T in
	// milliseconds, and the (headroom-derated) policy window in seconds.
	SLOms   float64 `json:"slo_ms"`
	WindowS float64 `json:"window_s"`
	// Headroom is the configured slack derate in (0, 1].
	Headroom float64 `json:"headroom"`
	// Rates are the deployable slice rates; SampleTimes the calibrator's
	// current per-sample t(r) estimates.
	Rates       []float64  `json:"rates"`
	SampleTimes []RateTime `json:"sample_times"`
	// BacklogAheadS is the estimated in-flight work beyond the snapshot
	// instant — the replica's completion horizon relative to its own now,
	// the quantity a coordinator folds into its replica model.
	BacklogAheadS  float64 `json:"backlog_ahead_s"`
	BacklogWindows int     `json:"backlog_windows"`
	// QueueDepth and InFlight are the instantaneous load gauges; Windows
	// the T/2 sequence counter.
	QueueDepth int   `json:"queue_depth"`
	InFlight   int   `json:"inflight"`
	Windows    int64 `json:"windows"`
	// CircuitOpen marks the brownout circuit; Stopping marks shutdown.
	CircuitOpen bool `json:"circuit_open"`
	Stopping    bool `json:"stopping"`
	// ModelEpoch and ModelCRC identify the artifact currently serving —
	// the checkpoint's recorded training epoch and its header CRC32 as a
	// %08x string ("00000000" for in-process models). Swaps counts
	// completed live swaps, so a rolling fleet operation can watch each
	// replica's identity flip.
	ModelEpoch uint64 `json:"model_epoch"`
	ModelCRC   string `json:"checkpoint_crc32"`
	Swaps      int64  `json:"swaps"`
}

// State snapshots the coordinator-facing replica state. Rates is the
// server's own list, shared read-only: a coordinator polls this every health
// interval, so the snapshot copies only what changes.
func (s *Server) State() State {
	now := s.clock.Now()
	st := State{
		SLOms:       float64(s.cfg.SLO.Microseconds()) / 1e3,
		WindowS:     s.policy.Window,
		Headroom:    s.cfg.Headroom,
		Rates:       s.cfg.Rates,
		SampleTimes: s.cal.appendTimes(make([]RateTime, 0, len(s.cfg.Rates))),
	}
	sortRateTimes(st.SampleTimes)
	s.mu.Lock()
	st.BacklogAheadS = s.backlog.Ahead(s.sinceStart(now))
	st.QueueDepth = len(s.pending)
	st.InFlight = s.inflight
	st.Windows = s.winSeq
	st.CircuitOpen = s.circuitOpen
	st.Stopping = s.stopping
	st.ModelEpoch = s.info.Epoch
	crc := s.info.CRC
	s.mu.Unlock()
	st.ModelCRC = strconv.FormatUint(1<<32|uint64(crc), 16)[1:] // %08x
	st.Swaps = s.metrics.swaps.Load()
	st.BacklogWindows = s.sched.depth()
	return st
}

func sortRateTimes(ts []RateTime) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Rate < ts[j-1].Rate; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// SampleTimeTable converts a polled t(r) table back into the function form
// serving.Policy wants, with nearest-known-rate fallback for rates the table
// does not list (a replica mid-calibration, or a fleet with divergent rate
// sets).
func SampleTimeTable(ts []RateTime) func(r float64) float64 {
	table := append([]RateTime(nil), ts...)
	sortRateTimes(table)
	return func(r float64) float64 {
		if len(table) == 0 {
			return 0
		}
		best, dist := table[0].Seconds, absF(table[0].Rate-r)
		for _, e := range table[1:] {
			if d := absF(e.Rate - r); d < dist {
				best, dist = e.Seconds, d
			}
		}
		return best
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.State())
}

// retryAfterHeaders stamps a 503's backoff hint in both granularities: the
// standard integer-seconds Retry-After header (ceiling, minimum 1 — external
// clients), and the exact retry_after_ms the JSON body carries for the fleet
// coordinator, whose windows are far shorter than a second.
func (s *Server) retryAfterHeaders(w http.ResponseWriter, now time.Time) float64 {
	d := s.RetryAfter(now)
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	return float64(d.Microseconds()) / 1e3
}
