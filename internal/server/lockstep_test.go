package server

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
)

// TestLockstepSimulationAndLiveServerAgree is the drift guard for the
// backlog model: the clock-free simulation and the live server under a
// FakeClock are driven with the same arrival trace — window k's queries
// enqueued at k·W, the window closed at (k+1)·W — and must produce
// identical per-window rate decisions, including the cascade windows where
// backlog degrades the rate and the drained windows where it recovers.
func TestLockstepSimulationAndLiveServerAgree(t *testing.T) {
	rates := slicing.NewRateList(0.25, 4)
	// The trace walks through every regime: feasible windows, an overrun
	// (n=20 > 16 = capacity at r_min), a one-query window degraded by the
	// overrun's backlog, recovery to r=1, a second overrun (n=17), and an
	// exactly-full boundary window (n=16).
	arrivals := []int{3, 20, 1, 1, 0, 17, 2, 1, 5, 16, 1, 0, 1}

	simCfg := serving.Config{LatencySLO: 2, FullSampleTime: 1, Rates: rates}
	sim := serving.Simulate(simCfg, arrivals)

	rng := rand.New(rand.NewSource(1))
	clk := NewFakeClock(time.Unix(0, 0))
	s, err := New(Config{
		Model:      models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:      rates,
		InputShape: []int{4},
		SLO:        2 * time.Second,
		Workers:    2,
		Clock:      clk,
		// The lockstep contract needs identical inputs, not identical
		// hardware: pin t(r) to the simulation's idealized curve and leave
		// admission wide open so the server sees the same batch sizes.
		SampleTime: func(r float64) float64 { return r * r },
		// Decisions must depend only on the modeled inputs: leave both
		// admission bounds wide open (the simulation has neither).
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	perWindow := make([][]<-chan Result, len(arrivals))
	for k, n := range arrivals {
		for j := 0; j < n; j++ {
			ch, err := s.Submit(input(int64(100*k + j)))
			if err != nil {
				t.Fatalf("window %d submit %d: %v", k, j, err)
			}
			perWindow[k] = append(perWindow[k], ch)
		}
		clk.Tick(time.Second)
	}

	for k := range arrivals {
		for i, ch := range perWindow[k] {
			res := <-ch
			if want := sim.Ticks[k].Rate; res.Rate != want {
				t.Fatalf("window %d query %d: live served at %v, simulation chose %v",
					k, i, res.Rate, want)
			}
		}
	}

	st := s.Stats()
	simInfeasible := 0
	for _, tick := range sim.Ticks {
		if tick.Infeasible {
			simInfeasible++
		}
	}
	if st.InfeasibleBatches != int64(simInfeasible) {
		t.Fatalf("live infeasible batches %d, simulation %d", st.InfeasibleBatches, simInfeasible)
	}
	if st.DegradedBatches != int64(sim.DegradedWindows) {
		t.Fatalf("live degraded batches %d, simulation %d", st.DegradedBatches, sim.DegradedWindows)
	}
	// Sanity on the trace itself: it must actually exercise the cascade.
	if simInfeasible < 2 || sim.DegradedWindows < 1 {
		t.Fatalf("trace too tame: %d infeasible, %d degraded", simInfeasible, sim.DegradedWindows)
	}
	if st.Rejected != 0 {
		t.Fatalf("lockstep run rejected %d queries; decisions are not comparable", st.Rejected)
	}
}

// TestLockstepSlackGauges cross-checks the live gauges against the
// simulation's per-tick accounting for the same trace.
func TestLockstepSlackGauges(t *testing.T) {
	rates := slicing.NewRateList(0.25, 4)
	arrivals := []int{20, 1}
	simCfg := serving.Config{LatencySLO: 2, FullSampleTime: 1, Rates: rates}
	sim := serving.Simulate(simCfg, arrivals)

	rng := rand.New(rand.NewSource(2))
	clk := NewFakeClock(time.Unix(0, 0))
	s, err := New(Config{
		Model:             models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:             rates,
		InputShape:        []int{4},
		SLO:               2 * time.Second,
		Workers:           1,
		Clock:             clk,
		SampleTime:        func(r float64) float64 { return r * r },
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	for k, n := range arrivals {
		for j := 0; j < n; j++ {
			if _, err := s.Submit(input(int64(10*k + j))); err != nil {
				t.Fatal(err)
			}
		}
		clk.Tick(time.Second)
	}
	st := s.Stats()
	last := sim.Ticks[len(sim.Ticks)-1]
	if math.Abs(st.LastSlackSeconds-last.Slack) > 1e-9 {
		t.Fatalf("live slack gauge %v, simulation %v", st.LastSlackSeconds, last.Slack)
	}
	if math.Abs(st.LastAheadSeconds-last.Ahead) > 1e-9 {
		t.Fatalf("live ahead gauge %v, simulation %v", st.LastAheadSeconds, last.Ahead)
	}
}
