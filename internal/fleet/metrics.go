package fleet

import (
	"fmt"
	"sync/atomic"

	"modelslicing/internal/obs"
)

// coordMetrics aggregates the coordinator's counters. Hot-path counts are
// atomics; per-replica counts live on the replica entries under the
// coordinator mutex they already share with routing.
type coordMetrics struct {
	forwarded atomic.Int64 // queries answered through the fleet
	retries   atomic.Int64 // attempts re-routed to a different replica
	hedges    atomic.Int64 // straggler hedges launched
	hedgeWins atomic.Int64 // queries whose winning reply came from the hedge copy
	ejections atomic.Int64 // replicas ejected by the failure threshold
	rejoins   atomic.Int64 // ejected replicas readmitted
	shed      atomic.Int64 // queries the coordinator itself refused
	swaps     atomic.Int64 // replica promotions completed by rolling swaps
	// healthPolls counts the health loop's GET /state requests, failed ones
	// included.
	healthPolls atomic.Int64
	latency     obs.Histogram
}

// ReplicaStatus is one fleet member's externally visible state.
type ReplicaStatus struct {
	URL string `json:"url"`
	// Ejected means out of rotation (health ejection or leave); Penalized
	// means in rotation but deprioritized (its brownout circuit is open);
	// Left means administratively removed.
	Ejected   bool `json:"ejected"`
	Penalized bool `json:"penalized"`
	Left      bool `json:"left"`
	// Routed counts queries booked to this replica (hedges included).
	Routed int64 `json:"routed"`
	// ConsecFails is the current consecutive-failure count feeding the
	// ejection threshold; Ejections and Rejoins are lifetime totals.
	ConsecFails int   `json:"consec_fails"`
	Ejections   int64 `json:"ejections"`
	Rejoins     int64 `json:"rejoins"`
	// BacklogAheadS is the coordinator's modeled in-flight work on the
	// replica right now.
	BacklogAheadS float64 `json:"backlog_ahead_s"`
}

// Stats is a point-in-time snapshot of the coordinator's aggregates.
type Stats struct {
	Forwarded int64
	Retries   int64
	Hedges    int64
	HedgeWins int64
	Ejections int64
	Rejoins   int64
	Shed      int64
	Swaps     int64
	// HealthPolls counts the health loop's /state polls; read against
	// Forwarded, it is what the health cadence costs per query.
	HealthPolls int64
	Replicas    []ReplicaStatus
	Latency     obs.HistSnapshot
}

// Replicas snapshots every fleet member's status, join order preserved.
func (c *Coordinator) Replicas() []ReplicaStatus {
	now := c.clock.Now()
	nowF := c.sinceStart(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplicaStatus, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = ReplicaStatus{
			URL:           r.url,
			Ejected:       r.model.Ejected,
			Penalized:     r.model.Penalized,
			Left:          r.left,
			Routed:        r.routed,
			ConsecFails:   r.consecFails,
			Ejections:     r.ejected,
			Rejoins:       r.rejoined,
			BacklogAheadS: r.model.Backlog.Ahead(nowF),
		}
	}
	return out
}

// Stats snapshots the coordinator's aggregate counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Forwarded:   c.metrics.forwarded.Load(),
		Retries:     c.metrics.retries.Load(),
		Hedges:      c.metrics.hedges.Load(),
		HedgeWins:   c.metrics.hedgeWins.Load(),
		Ejections:   c.metrics.ejections.Load(),
		Rejoins:     c.metrics.rejoins.Load(),
		Shed:        c.metrics.shed.Load(),
		Swaps:       c.metrics.swaps.Load(),
		HealthPolls: c.metrics.healthPolls.Load(),
		Replicas:    c.Replicas(),
		Latency:     c.metrics.latency.Snapshot(),
	}
}

// prometheus renders the snapshot in the Prometheus text exposition format,
// msfleet_-prefixed so a scrape of coordinator and replicas never collides.
func (s Stats) prometheus() string {
	var b []byte
	counter := func(name, help string, v int64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)...)
	}
	counter("msfleet_forwarded_total", "Queries answered through the fleet.", s.Forwarded)
	counter("msfleet_shed_total", "Queries the coordinator refused (fleet saturated or empty).", s.Shed)
	counter("msfleet_retries_total", "Attempts re-routed to a different replica after a transient failure.", s.Retries)
	counter("msfleet_hedges_total", "Straggler hedges launched.", s.Hedges)
	counter("msfleet_hedge_wins_total", "Queries whose winning reply came from the hedge copy.", s.HedgeWins)
	counter("msfleet_ejections_total", "Replicas ejected on consecutive failures.", s.Ejections)
	counter("msfleet_rejoins_total", "Ejected replicas readmitted after recovery.", s.Rejoins)
	counter("msfleet_swaps_total", "Replica promotions completed by rolling model swaps.", s.Swaps)
	counter("msfleet_health_polls_total", "Health-loop GET /state polls sent to replicas.", s.HealthPolls)
	b = append(b, "# HELP msfleet_replica_up 1 while the replica is in rotation, 0 while ejected or left.\n# TYPE msfleet_replica_up gauge\n"...)
	for _, r := range s.Replicas {
		up := 1
		if r.Ejected || r.Left {
			up = 0
		}
		b = append(b, fmt.Sprintf("msfleet_replica_up{replica=%q} %d\n", r.URL, up)...)
	}
	b = append(b, "# HELP msfleet_replica_routed_total Queries booked per replica (hedges included).\n# TYPE msfleet_replica_routed_total counter\n"...)
	for _, r := range s.Replicas {
		b = append(b, fmt.Sprintf("msfleet_replica_routed_total{replica=%q} %d\n", r.URL, r.Routed)...)
	}
	b = append(b, "# HELP msfleet_replica_backlog_seconds Modeled in-flight work per replica.\n# TYPE msfleet_replica_backlog_seconds gauge\n"...)
	for _, r := range s.Replicas {
		b = append(b, fmt.Sprintf("msfleet_replica_backlog_seconds{replica=%q} %g\n", r.URL, r.BacklogAheadS)...)
	}
	b = obs.PromHistogram(b, "msfleet_query_latency_seconds",
		"Submission-to-reply latency of queries answered through the fleet.",
		[]obs.LabeledHist{{Labels: "", Hist: s.Latency}})
	return string(b)
}
