package serving

// Cluster is the fleet-level half of the Equation-3 policy: N replicas, each
// modeled exactly as the single-process scheduler models itself — a Policy
// built from the replica's calibrated t(r) plus a work-conserving Backlog
// horizon of everything already routed to it. A replica is just a pool whose
// horizon you read; the coordinator's routing question ("which replica would
// serve this query's window at the highest rate?") is the same product-form
// n·t(r) ≤ slack comparison every other feasibility question in this package
// goes through.
//
// Like Backlog, the model is deliberately estimate-based: horizons drain
// with the clock and extend with each window's decision, never corrected by
// completion events, so the live coordinator under a fake clock and the
// clock-free fleet simulation produce identical routing decisions — which is
// what the fleet lockstep test in internal/fleet pins.
type Cluster struct {
	// SLO is the latency bound T on the policy time axis.
	SLO float64
	// Replicas are the modeled replicas, index-aligned with the
	// coordinator's replica set.
	Replicas []*ReplicaModel
}

// ReplicaModel is the coordinator's estimate of one replica.
type ReplicaModel struct {
	// Policy is the replica's Equation-3 policy, built from the t(r) table
	// the replica reports over /state.
	Policy Policy
	// Backlog is the completion horizon of the work already routed to the
	// replica — the same model the replica's own scheduler budgets with.
	Backlog Backlog
	// Headroom in (0, 1] derates each window's deadline slack exactly as
	// the replica's own server does (the value it reports); 0 means 1.
	Headroom float64
	// Pending counts queries routed to the replica's currently-open window;
	// Oldest is the arrival time of the first of them.
	Pending int
	Oldest  float64
	// Penalized deprioritizes the replica (its brownout circuit is open, so
	// its calibrated t(r) cannot be trusted): it is chosen only when no
	// clean replica admits the query feasibly.
	Penalized bool
	// Ejected takes the replica out of rotation entirely (health-check
	// ejection, or administrative leave).
	Ejected bool
}

// RouteDecision explains one query's placement.
type RouteDecision struct {
	// Replica is the chosen replica's index; -1 when no replica is in
	// rotation.
	Replica int
	// Rate and Feasible are the decision the chosen replica would take for
	// its grown current-window batch: the largest rate with
	// (Pending+1)·t(r) ≤ Slack.
	Rate     float64
	Feasible bool
	// Slack is the deadline budget that comparison ran against
	// (deadline − close − Ahead); Ahead the replica's estimated in-flight
	// work at the window close.
	Slack float64
	Ahead float64
	// Penalized reports that the query landed on a circuit-open replica
	// because no clean one admitted it feasibly.
	Penalized bool
}

// deadline maps a window's oldest arrival onto the derated deadline the
// replica's own server budgets against: close + Headroom·(oldest + SLO − close).
func (r *ReplicaModel) deadline(slo, oldest, close float64) float64 {
	h := r.Headroom
	if h == 0 {
		h = 1
	}
	return close + (oldest+slo-close)*h
}

// routeClass ranks a candidate: a clean feasible replica beats a penalized
// feasible one beats any infeasible one — the query goes to a circuit-open
// replica only when nothing trustworthy can serve it in time, and to an
// infeasible replica only when the whole fleet is saturated.
func routeClass(feasible, penalized bool) int {
	switch {
	case feasible && !penalized:
		return 3
	case feasible:
		return 2
	case !penalized:
		return 1
	default:
		return 0
	}
}

// better orders candidates within Route: class first, then the higher rate,
// then the larger slack (emptier replica), with ties keeping the lower index
// (Route scans ascending and replaces only on strict improvement).
func better(a, b RouteDecision, aFeas, bFeas bool) bool {
	ca, cb := routeClass(aFeas, a.Penalized), routeClass(bFeas, b.Penalized)
	if ca != cb {
		return ca > cb
	}
	if a.Rate != b.Rate {
		return a.Rate > b.Rate
	}
	return a.Slack > b.Slack
}

// Route assigns one query arriving at time arrival (deciding at window close
// close) to the replica that would serve its grown current-window batch at
// the highest rate, and books it into that replica's pending count. skip,
// when non-nil, excludes replicas (a retry must not revisit the replica that
// just failed). ok is false when no replica is in rotation.
func (c *Cluster) Route(arrival, close float64, skip func(i int) bool) (rd RouteDecision, ok bool) {
	rd.Replica = -1
	for i, r := range c.Replicas {
		if r.Ejected || (skip != nil && skip(i)) {
			continue
		}
		oldest := arrival
		if r.Pending > 0 && r.Oldest < oldest {
			oldest = r.Oldest
		}
		ahead := r.Backlog.Ahead(close)
		slack := r.deadline(c.SLO, oldest, close) - close - ahead
		rate, feasible := r.Policy.ChooseSlack(r.Pending+1, slack)
		d := RouteDecision{
			Replica: i, Rate: rate, Feasible: feasible,
			Slack: slack, Ahead: ahead, Penalized: r.Penalized,
		}
		if rd.Replica < 0 || better(d, rd, feasible, rd.Feasible) {
			rd = d
		}
	}
	if rd.Replica < 0 {
		return rd, false
	}
	r := c.Replicas[rd.Replica]
	if r.Pending == 0 || arrival < r.Oldest {
		r.Oldest = arrival
	}
	r.Pending++
	return rd, true
}

// Close closes the current window at time close: every replica with routed
// queries takes the same backlog-aware Decision its own scheduler will take
// for that batch, extending its horizon, and the pending counts reset. The
// returned slice is index-aligned with Replicas; entries with no batch are
// zero-valued.
func (c *Cluster) Close(close float64) []Decision {
	out := make([]Decision, len(c.Replicas))
	for i, r := range c.Replicas {
		if r.Pending == 0 {
			continue
		}
		out[i] = r.Backlog.Decide(r.Policy, r.Pending, r.deadline(c.SLO, r.Oldest, close), close)
		r.Pending, r.Oldest = 0, 0
	}
	return out
}

// FleetTick records one T/2 window of a fleet simulation.
type FleetTick struct {
	Arrivals int
	// Routed is the batch each replica collected this window; Decisions the
	// backlog-aware decision it took for it (zero-valued when Routed is 0).
	Routed    []int
	Decisions []Decision
}

// FleetStats aggregates a fleet simulation run.
type FleetStats struct {
	Ticks     []FleetTick
	Processed int
	// SLOViolations counts queries in replica-window batches that missed
	// their deadline; InfeasibleWindows and DegradedWindows count the
	// replica-window batches themselves.
	SLOViolations     int
	InfeasibleWindows int
	DegradedWindows   int
	RateHist          map[float64]int
	MeanRate          float64
	// PerReplica is the total queries routed to each replica.
	PerReplica []int
}

// SimulateFleet runs the cluster decision clock-free over per-window arrival
// counts: every query of window k arrives at k·W, is routed greedily through
// Cluster.Route, and each replica's batch is decided at the close (k+1)·W —
// the identical arithmetic the live coordinator runs, which is what the
// fleet lockstep test pins. All replicas share cfg's cost curve and a
// headroom of 1, the homogeneous-fleet baseline.
func SimulateFleet(cfg Config, replicas int, arrivals []int) FleetStats {
	policy := cfg.Policy()
	c := &Cluster{SLO: cfg.LatencySLO, Replicas: make([]*ReplicaModel, replicas)}
	for i := range c.Replicas {
		c.Replicas[i] = &ReplicaModel{Policy: policy, Headroom: 1}
	}
	window := policy.Window
	stats := FleetStats{RateHist: make(map[float64]int), PerReplica: make([]int, replicas)}
	sumRate := 0.0
	for k, n := range arrivals {
		arrival, close := float64(k)*window, float64(k+1)*window
		routed := make([]int, replicas)
		for q := 0; q < n; q++ {
			rd, ok := c.Route(arrival, close, nil)
			if !ok {
				break
			}
			routed[rd.Replica]++
		}
		ds := c.Close(close)
		for i, d := range ds {
			if routed[i] == 0 {
				continue
			}
			stats.Processed += routed[i]
			stats.PerReplica[i] += routed[i]
			stats.RateHist[d.Rate] += routed[i]
			sumRate += d.Rate * float64(routed[i])
			if !d.Feasible {
				stats.SLOViolations += routed[i]
				stats.InfeasibleWindows++
			}
			if d.Degraded {
				stats.DegradedWindows++
			}
		}
		stats.Ticks = append(stats.Ticks, FleetTick{Arrivals: n, Routed: routed, Decisions: ds})
	}
	if stats.Processed > 0 {
		stats.MeanRate = sumRate / float64(stats.Processed)
	}
	return stats
}
