package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"modelslicing/internal/server"
)

// Handler returns the coordinator's HTTP API — wire-compatible with a single
// replica's on the query path, so clients point at the coordinator without
// changing a line:
//
//	POST /predict   — route one sample through the fleet (same JSON as a
//	                  replica's /predict)
//	GET  /metrics   — Prometheus text exposition of the fleet counters
//	GET  /healthz   — liveness plus live/total replica counts
//	GET  /replicas  — fleet membership and per-replica status
//	POST /replicas  — runtime join/leave: {"op":"join"|"leave","url":...}
//	POST /admin/swap — rolling fleet-wide model swap, one health-gated
//	                  replica at a time
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", c.handlePredict)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/replicas", c.handleReplicas)
	mux.HandleFunc("/admin/swap", c.handleSwapAll)
	return mux
}

func (c *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	// The body is neither parsed nor re-encoded here: the replica that
	// serves it is the one place the input vector's text is read.
	var body bytes.Buffer
	if !server.ReadPredictBody(w, r, &body, maxBodyBytes) {
		return
	}
	reply, err := c.predictBytes(r.Context(), body.Bytes(), r.URL.RawQuery)
	if err == nil {
		w.Header()["Content-Type"] = jsonContentType
		_, _ = w.Write(reply) // a client that left is not the fleet's error
		return
	}
	// Declared past the success return: errors.As takes its address, which
	// moves it to the heap, so only a failed query pays that allocation.
	var aerr *attemptErr
	failed := errors.As(err, &aerr)
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrNoReplicas):
		// The soonest horizon the shedding replicas derived, if there is one.
		secs := 1
		if failed {
			secs = max(secs, aerr.retryAfter)
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	default:
		if failed && !aerr.retryable {
			// The replica judged the request malformed; relay that verdict.
			writeJSONStatus(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		writeJSONStatus(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(c.Stats().prometheus()))
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live, total := 0, 0
	for _, r := range c.Replicas() {
		if r.Left {
			continue
		}
		total++
		if !r.Ejected {
			live++
		}
	}
	writeJSON(w, map[string]any{
		"status":        "ok",
		"replicas":      total,
		"live_replicas": live,
	})
}

// handleReplicas is the runtime membership API: GET lists, POST joins or
// leaves one replica by base URL.
func (c *Coordinator) handleReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, c.Replicas())
	case http.MethodPost:
		var req struct {
			Op  string `json:"op"`
			URL string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Op {
		case "join":
			if err := c.AddReplica(req.URL); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
		case "leave":
			if !c.RemoveReplica(req.URL) {
				http.Error(w, "unknown replica "+req.URL, http.StatusNotFound)
				return
			}
		default:
			http.Error(w, `op must be "join" or "leave"`, http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	default:
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
	}
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
