package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"modelslicing/internal/tensor"
)

// PredictRequest is the JSON body of POST /predict: a flat row-major input
// vector matching the model's single-sample shape.
type PredictRequest struct {
	Input []float64 `json:"input"`
}

// PredictResponse is the JSON answer: the model output (e.g. class logits),
// the winning class, the slice rate the batch was served at, and the
// measured latency. Stages carries the per-stage latency breakdown when the
// request asked for it with ?debug=1.
type PredictResponse struct {
	Output    []float64      `json:"output"`
	ArgMax    int            `json:"argmax"`
	Rate      float64        `json:"rate"`
	LatencyMs float64        `json:"latency_ms"`
	SLOMiss   bool           `json:"slo_miss"`
	Stages    *PredictStages `json:"stages,omitempty"`
}

// PredictStages is the ?debug=1 stage breakdown of a query's latency:
// queue wait (batch formation), dispatch wait (scheduler shard queue),
// compute, and settle. The four sum to latency_ms.
type PredictStages struct {
	QueuedMs   float64 `json:"queued_ms"`
	DispatchMs float64 `json:"dispatch_ms"`
	ComputeMs  float64 `json:"compute_ms"`
	SettleMs   float64 `json:"settle_ms"`
}

// Handler returns the server's HTTP API:
//
//	POST /predict          — submit one sample, blocks until its window is
//	                         served; ?debug=1 adds the stage breakdown
//	GET  /metrics          — Prometheus text exposition of the live counters
//	                         and latency histograms
//	GET  /healthz          — liveness (503 once shutdown has begun)
//	GET  /state            — coordinator-facing snapshot: t(r) table, policy
//	                         window, backlog horizon, circuit state, load
//	                         gauges (what a fleet coordinator polls)
//	POST /admin/swap       — build a replacement model via Config.SwapSource
//	                         and hot-swap it in (501 when no source is
//	                         configured)
//	GET  /debug/decisions  — the window-decision flight recorder (last N
//	                         scheduling decisions with inputs and reasons);
//	                         ?n=K limits to the newest K
//	GET  /debug/trace      — sampled query spans as Chrome trace_event JSON
//	                         (load in chrome://tracing or Perfetto)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/admin/swap", s.handleSwap)
	mux.HandleFunc("/debug/decisions", s.handleDecisions)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	// pb goes back to the pool unless the request ends with its query still
	// inside the engine (the client left, or the shard failed): the batcher,
	// or an abandoned shard's zombie worker, may yet read the input vector,
	// and a later request must not be writing it then.
	pb, recycle := predictBufs.Get().(*predictBuf), true
	defer func() {
		if recycle {
			predictBufs.Put(pb)
		}
	}()
	// The wire format is a flat row-major vector; rebuild the model's
	// single-sample shape before submitting (Submit validates the full
	// shape, not just the element count).
	want := 1
	for _, d := range s.cfg.InputShape {
		want *= d
	}
	// A float64 prints in at most 24 bytes; 32 leaves room for separators.
	if !ReadPredictBody(w, r, &pb.raw, int64(want)*32+4096) {
		return
	}
	in, err := parsePredict(pb.raw.Bytes(), pb.in)
	if err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	pb.in = in
	if len(in) != want {
		http.Error(w, fmt.Sprintf("input has %d elements, model wants %d (shape %v)",
			len(in), want, s.cfg.InputShape), http.StatusBadRequest)
		return
	}
	pb.x = tensor.Tensor{Shape: s.cfg.InputShape, Data: in}
	ch, err := s.Submit(&pb.x)
	switch {
	case errors.Is(err, ErrOverloaded):
		// Shed with the evidence attached: a horizon-derived backoff hint
		// (so clients wait out the actual drain instead of guessing) and
		// the flight recorder's most recent window decisions, which explain
		// what ate the admission budget.
		retryMs := s.retryAfterHeaders(w, s.clock.Now())
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{
			"error":            err.Error(),
			"retry_after_ms":   retryMs,
			"recent_decisions": s.recorder.Last(4),
		})
		return
	case errors.Is(err, ErrStopped):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case res := <-ch:
		if res.Err != nil {
			// Accepted but not answered: the shard panicked, was abandoned by
			// the watchdog, or the query expired or was caught by shutdown.
			// The failure is server-side and transient — the pool has already
			// been repaired — so 500 with the cause, not a hung connection.
			writeJSONStatus(w, http.StatusInternalServerError, map[string]any{
				"error":      res.Err.Error(),
				"rate":       res.Rate,
				"latency_ms": float64(res.Latency.Microseconds()) / 1e3,
			})
			recycle = false
			return
		}
		resp := PredictResponse{
			Output:    res.Output.Data,
			ArgMax:    res.Output.ArgMax(),
			Rate:      res.Rate,
			LatencyMs: float64(res.Latency.Microseconds()) / 1e3,
			SLOMiss:   res.SLOMiss,
		}
		var stages PredictStages
		// RawQuery first: Query() builds a map per call.
		if r.URL.RawQuery != "" && r.URL.Query().Get("debug") == "1" {
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
			stages = PredictStages{
				QueuedMs:   ms(res.Queued),
				DispatchMs: ms(res.Dispatch),
				ComputeMs:  ms(res.Compute),
				SettleMs:   ms(res.Settle),
			}
			resp.Stages = &stages
		}
		pb.raw.Reset()
		out, err := appendPredictResponse(pb.raw.AvailableBuffer(), &resp)
		if err != nil {
			// An empty 200 would read as a broken replica and be retried
			// across the fleet; say what happened instead.
			writeJSONStatus(w, http.StatusInternalServerError, map[string]any{
				"error": err.Error(),
				"rate":  res.Rate,
			})
			return
		}
		w.Header()["Content-Type"] = jsonContentType
		_, _ = w.Write(out) // a client that left is not the server's error
	case <-r.Context().Done():
		// Client gave up; the result channel is buffered so the
		// dispatcher is never blocked by the abandonment.
		http.Error(w, "client cancelled", 499)
		recycle = false
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.Stats().prometheus()))
}

// handleDecisions dumps the window-decision flight recorder, oldest first.
// ?n=K restricts the dump to the newest K decisions.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	recs := s.recorder.Snapshot()
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			recs = s.recorder.Last(n)
		}
	}
	writeJSON(w, map[string]any{
		"total_recorded": s.recorder.Total(),
		"decisions":      recs,
	})
}

// handleTrace streams the sampled query spans as a Chrome trace_event JSON
// array.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	_ = s.tracer.WriteTraceEvents(w)
}

// handleSwap triggers a live model swap through Config.SwapSource: the
// source builds the replacement (typically re-opening the checkpoint path),
// Swap recalibrates and publishes it, and the response reports the new model
// identity — what a rolling fleet operation polls for to confirm promotion.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.SwapSource == nil {
		http.Error(w, "no swap source configured (server is not running from a checkpoint)", http.StatusNotImplemented)
		return
	}
	ns, info, err := s.cfg.SwapSource()
	if err != nil {
		writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	if err := s.Swap(ns, info); err != nil {
		writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, map[string]any{
		"swapped":          true,
		"model_epoch":      info.Epoch,
		"checkpoint_crc32": fmt.Sprintf("%08x", info.CRC),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	stopping := s.stopping
	info := s.info
	s.mu.Unlock()
	if stopping {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]any{
		"status":           "ok",
		"slo_ms":           float64(s.cfg.SLO.Microseconds()) / 1e3,
		"circuit_open":     s.CircuitOpen(),
		"model_epoch":      info.Epoch,
		"checkpoint_crc32": fmt.Sprintf("%08x", info.CRC),
		"swaps":            s.metrics.swaps.Load(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
