package serving

import (
	"testing"

	"modelslicing/internal/slicing"
)

func clusterCfg() Config {
	return Config{LatencySLO: 2, FullSampleTime: 1, Rates: slicing.NewRateList(0.25, 4)}
}

// A one-replica fleet is definitionally the single-node system: SimulateFleet
// with N=1 must reproduce Simulate window for window.
func TestSimulateFleetSingleReplicaMatchesSimulate(t *testing.T) {
	cfg := clusterCfg()
	arrivals := []int{1, 5, 0, 12, 3, 0, 9, 2, 7, 0, 1}
	single := Simulate(cfg, arrivals)
	fleet := SimulateFleet(cfg, 1, arrivals)

	if fleet.Processed != single.Processed {
		t.Fatalf("processed %d, single-node %d", fleet.Processed, single.Processed)
	}
	if fleet.SLOViolations != single.SLOViolations {
		t.Fatalf("violations %d, single-node %d", fleet.SLOViolations, single.SLOViolations)
	}
	if fleet.DegradedWindows != single.DegradedWindows {
		t.Fatalf("degraded %d, single-node %d", fleet.DegradedWindows, single.DegradedWindows)
	}
	if fleet.MeanRate != single.MeanRate {
		t.Fatalf("mean rate %g, single-node %g", fleet.MeanRate, single.MeanRate)
	}
	for k := range arrivals {
		if arrivals[k] == 0 {
			continue
		}
		got, want := fleet.Ticks[k].Decisions[0], single.Ticks[k]
		if got.Rate != want.Rate || !got.Feasible == !want.Infeasible || got.Degraded != want.Degraded {
			t.Fatalf("window %d: fleet decision %+v, single-node tick %+v", k, got, want)
		}
	}
}

// Spreading a batch over N replicas multiplies the feasible envelope: a
// window that overruns one replica is served cleanly by three.
func TestSimulateFleetAbsorbsWhatOneReplicaCannot(t *testing.T) {
	cfg := clusterCfg()
	arrivals := []int{40, 0, 40, 0, 40, 0}
	if v := Simulate(cfg, arrivals).SLOViolations; v == 0 {
		t.Fatal("trace is supposed to overrun a single replica")
	}
	if v := SimulateFleet(cfg, 3, arrivals).SLOViolations; v != 0 {
		t.Fatalf("3-replica fleet still violated %d queries", v)
	}
}

// Route prefers the replica that serves the query's window at the highest
// rate, breaking rate ties toward the emptier replica and slack ties toward
// the lowest index.
func TestRouteGreedyOrdering(t *testing.T) {
	policy := clusterCfg().Policy()
	c := &Cluster{SLO: 2, Replicas: []*ReplicaModel{
		{Policy: policy}, {Policy: policy}, {Policy: policy},
	}}
	// Replica 0 carries 0.8s of in-flight work: its slack for a window-0
	// query is 0.2 → rate 0.25; empty replicas offer rate 1.0.
	c.Replicas[0].Backlog.Extend(0, 1.8)

	rd, ok := c.Route(0, 1, nil)
	if !ok || rd.Replica != 1 || rd.Rate != 1.0 {
		t.Fatalf("first query routed to %d at rate %g, want empty replica 1 at 1.0", rd.Replica, rd.Rate)
	}
	// Booking replica 1 drops its prospective rate for a second query
	// (n=2 → 0.5), so the next query goes to still-empty replica 2.
	rd, ok = c.Route(0, 1, nil)
	if !ok || rd.Replica != 2 || rd.Rate != 1.0 {
		t.Fatalf("second query routed to %d at rate %g, want replica 2 at 1.0", rd.Replica, rd.Rate)
	}
	// Now both clean replicas hold one query (prospective rate 0.5 each);
	// the backlogged replica offers only 0.25, so the tie between 1 and 2
	// resolves to the lower index.
	rd, ok = c.Route(0, 1, nil)
	if !ok || rd.Replica != 1 || rd.Rate != 0.5 {
		t.Fatalf("third query routed to %d at rate %g, want replica 1 at 0.5", rd.Replica, rd.Rate)
	}
}

// Each replica's deadlines are derated by its own Headroom: the derated
// replica offers less slack, so an equal but underated one wins the query,
// and its window closes on the same derated deadline its server would use.
func TestRouteDeratedReplica(t *testing.T) {
	policy := clusterCfg().Policy()
	c := &Cluster{SLO: 2, Replicas: []*ReplicaModel{
		{Policy: policy, Headroom: 0.5}, {Policy: policy, Headroom: 1},
	}}
	// Oldest 0, close 1: the full slack is 1 (rate 1, t = r²); at headroom
	// 0.5 the deadline is 1 + 0.5·(0 + 2 − 1) = 1.5 and the slack 0.5
	// (rate 0.5).
	rd, ok := c.Route(0, 1, nil)
	if !ok || rd.Replica != 1 || rd.Rate != 1 || rd.Slack != 1 {
		t.Fatalf("routed %+v, want replica 1 at rate 1 with slack 1", rd)
	}
	rd, ok = c.Route(0, 1, func(i int) bool { return i == 1 })
	if !ok || rd.Replica != 0 || rd.Rate != 0.5 || rd.Slack != 0.5 {
		t.Fatalf("routed %+v, want derated replica 0 at rate 0.5 with slack 0.5", rd)
	}
	var ref Backlog
	if got, want := c.Close(1)[0], ref.Decide(policy, 1, 1.5, 1); got != want {
		t.Fatalf("derated close %+v, direct Decide at deadline 1.5 %+v", got, want)
	}
}

// A penalized replica is chosen only when no clean replica admits the query
// feasibly; an ejected replica is never chosen; skip excludes candidates the
// caller rules out (retry-on-a-different-replica).
func TestRoutePenalizedEjectedSkip(t *testing.T) {
	policy := clusterCfg().Policy()
	mk := func() *Cluster {
		return &Cluster{SLO: 2, Replicas: []*ReplicaModel{
			{Policy: policy}, {Policy: policy},
		}}
	}

	c := mk()
	c.Replicas[0].Penalized = true
	rd, _ := c.Route(0, 1, nil)
	if rd.Replica != 1 || rd.Penalized {
		t.Fatalf("routed to %d (penalized=%v), want clean replica 1", rd.Replica, rd.Penalized)
	}

	// Saturate the clean replica so it cannot admit feasibly; the penalized
	// one, feasible, now wins — penalty degrades priority, not membership.
	c = mk()
	c.Replicas[0].Penalized = true
	c.Replicas[1].Backlog.Extend(0, 3)
	rd, _ = c.Route(0, 1, nil)
	if rd.Replica != 0 || !rd.Penalized || !rd.Feasible {
		t.Fatalf("routed to %d (penalized=%v feasible=%v), want feasible penalized replica 0",
			rd.Replica, rd.Penalized, rd.Feasible)
	}

	c = mk()
	c.Replicas[0].Ejected = true
	rd, _ = c.Route(0, 1, nil)
	if rd.Replica != 1 {
		t.Fatalf("routed to ejected replica %d", rd.Replica)
	}
	c.Replicas[1].Ejected = true
	if _, ok := c.Route(0, 1, nil); ok {
		t.Fatal("routed with every replica ejected")
	}

	c = mk()
	rd, ok := c.Route(0, 1, func(i int) bool { return i == 0 })
	if !ok || rd.Replica != 1 {
		t.Fatalf("skip(0) routed to %d", rd.Replica)
	}
	if _, ok := c.Route(0, 1, func(i int) bool { return true }); ok {
		t.Fatal("routed with every replica skipped")
	}
}

// Close hands each booked replica the same backlog-aware decision its own
// scheduler takes, and resets the pending window.
func TestClusterCloseMatchesBacklogDecide(t *testing.T) {
	policy := clusterCfg().Policy()
	c := &Cluster{SLO: 2, Replicas: []*ReplicaModel{{Policy: policy}}}
	for q := 0; q < 5; q++ {
		if _, ok := c.Route(0, 1, nil); !ok {
			t.Fatal("route failed")
		}
	}
	var ref Backlog
	want := ref.Decide(policy, 5, 2, 1) // 5 queries, oldest 0, SLO 2, close 1
	got := c.Close(1)[0]
	if got != want {
		t.Fatalf("fleet close %+v, direct Decide %+v", got, want)
	}
	if r := c.Replicas[0]; r.Pending != 0 || r.Oldest != 0 {
		t.Fatalf("window not reset: pending=%d oldest=%g", r.Pending, r.Oldest)
	}
	if h := c.Replicas[0].Backlog.Horizon(); h != want.Completion {
		t.Fatalf("horizon %g, want %g", h, want.Completion)
	}
}
