package server

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// testServer builds a deterministic server over a tiny MLP: FakeClock-driven
// windows and a pinned quadratic t(r) = r² seconds against a 1 s window, so
// capacities are rate 1.0 → 1, 0.5 → 4, 0.25 → 16 samples per window.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *FakeClock) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	rates := slicing.NewRateList(0.25, 4)
	cfg := Config{
		Model:      models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:      rates,
		InputShape: []int{4},
		SLO:        2 * time.Second,
		Workers:    2,
		Clock:      NewFakeClock(time.Unix(0, 0)),
		SampleTime: func(r float64) float64 { return r * r },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, cfg.Clock.(*FakeClock)
}

func input(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestWindowFormsOneBatch(t *testing.T) {
	s, clk := testServer(t, nil)
	var chans []<-chan Result
	for i := 0; i < 4; i++ {
		ch, err := s.Submit(input(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if d := s.QueueDepth(); d != 4 {
		t.Fatalf("queue depth %d before the window closes, want 4", d)
	}
	clk.Tick(time.Second)
	for _, ch := range chans {
		res := <-ch
		// Four samples fit the window only at rate 0.5 (4·0.25 = 1 s).
		if res.Rate != 0.5 {
			t.Fatalf("batch of 4 served at rate %v, want 0.5", res.Rate)
		}
		if res.Output == nil || res.Output.Size() != 3 {
			t.Fatalf("bad output %v", res.Output)
		}
	}
	st := s.Stats()
	if st.Processed != 4 || st.Batches != 1 {
		t.Fatalf("stats processed=%d batches=%d, want 4/1", st.Processed, st.Batches)
	}
	if st.RateHist[0.5] != 4 {
		t.Fatalf("rate histogram %v, want 4 at 0.5", st.RateHist)
	}
}

// TestRateFallbackUnderBurst sweeps batch sizes across the capacity steps:
// the policy must walk down the rate list exactly at the Equation-3
// boundaries and flag infeasibility only past the lower bound's capacity.
func TestRateFallbackUnderBurst(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantRate   float64
		infeasible bool
	}{
		{1, 1.0, false},  // 1·1.0 = window
		{2, 0.5, false},  // 0.75 cannot hold 2 (1.125 s)
		{4, 0.5, false},  // boundary: 4·0.25 = window
		{5, 0.25, false}, // falls to the lower bound
		{16, 0.25, false},
		{17, 0.25, true}, // even r_min overruns: SLO lost but degraded no further
	} {
		s, clk := testServer(t, func(c *Config) { c.QueueFactor = 8 })
		var chans []<-chan Result
		for i := 0; i < tc.n; i++ {
			ch, err := s.Submit(input(int64(i)))
			if err != nil {
				t.Fatalf("n=%d submit %d: %v", tc.n, i, err)
			}
			chans = append(chans, ch)
		}
		clk.Tick(time.Second)
		for _, ch := range chans {
			if res := <-ch; res.Rate != tc.wantRate {
				t.Fatalf("batch of %d served at %v, want %v", tc.n, res.Rate, tc.wantRate)
			}
		}
		st := s.Stats()
		if got := st.InfeasibleBatches > 0; got != tc.infeasible {
			t.Fatalf("batch of %d infeasible=%v, want %v", tc.n, got, tc.infeasible)
		}
		s.Stop()
	}
}

func TestAdmissionControlRejectsBeyondLowerBoundCapacity(t *testing.T) {
	s, clk := testServer(t, nil)
	// Capacity at r_min=0.25 is 16; the 17th pending query cannot be saved
	// by any rate, so admission control must shed it.
	accepted := 0
	var rejections int
	var chans []<-chan Result
	for i := 0; i < 20; i++ {
		ch, err := s.Submit(input(int64(i)))
		switch {
		case err == nil:
			accepted++
			chans = append(chans, ch)
		case errors.Is(err, ErrOverloaded):
			rejections++
		default:
			t.Fatal(err)
		}
	}
	if accepted != 16 || rejections != 4 {
		t.Fatalf("accepted %d rejected %d, want 16/4", accepted, rejections)
	}
	if st := s.Stats(); st.Rejected != 4 {
		t.Fatalf("stats rejected %d, want 4", st.Rejected)
	}
	clk.Tick(time.Second)
	for _, ch := range chans {
		if res := <-ch; res.Rate != 0.25 {
			t.Fatalf("full window served at %v, want 0.25", res.Rate)
		}
	}
	// The queue drained: the next submission is admitted again.
	if _, err := s.Submit(input(99)); err != nil {
		t.Fatalf("submission after drain: %v", err)
	}
}

func TestSLOMissAccounting(t *testing.T) {
	s, clk := testServer(t, nil)
	ch, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	// The window fires only after 3 s — past the 2 s SLO.
	clk.Tick(3 * time.Second)
	res := <-ch
	if !res.SLOMiss || res.Latency != 3*time.Second {
		t.Fatalf("result %+v, want a 3 s SLO miss", res)
	}
	if st := s.Stats(); st.SLOMisses != 1 {
		t.Fatalf("stats misses %d, want 1", st.SLOMisses)
	}
}

func TestFixedRateBaselineMode(t *testing.T) {
	s, clk := testServer(t, func(c *Config) { c.FixedRate = 1.0 })
	// Capacity at the pinned full width is 1; the second pending query is
	// rejected, and any served batch reports the fixed rate.
	ch1, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(input(2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want overload at fixed-width capacity, got %v", err)
	}
	clk.Tick(time.Second)
	if res := <-ch1; res.Rate != 1.0 {
		t.Fatalf("fixed server served at %v", res.Rate)
	}
}

// TestServedOutputMatchesSlicedParent: the live path must compute exactly
// the parent model sliced at the batch's rate — extraction, sharding and
// batching cannot change the function.
func TestServedOutputMatchesSlicedParent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rates := slicing.NewRateList(0.25, 4)
	model := models.NewMLP(4, []int{8, 8}, 3, 4, rng)
	s, err := New(Config{
		Model:      model,
		Rates:      rates,
		InputShape: []int{4},
		SLO:        2 * time.Second,
		Workers:    3,
		Clock:      NewFakeClock(time.Unix(0, 0)),
		SampleTime: func(r float64) float64 { return r * r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	clk := s.clock.(*FakeClock)

	var chans []<-chan Result
	var inputs []*tensor.Tensor
	for i := 0; i < 7; i++ { // 7 → rate 0.25, shards of uneven size
		x := input(int64(100 + i))
		inputs = append(inputs, x)
		ch, err := s.Submit(x)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	clk.Tick(time.Second)
	for i, ch := range chans {
		res := <-ch
		want := slicing.Predict(model, rates, res.Rate, inputs[i].Clone().Reshape(1, 4))
		for j := 0; j < 3; j++ {
			if math.Abs(res.Output.Data[j]-want.Data[j]) > 1e-9 {
				t.Fatalf("query %d output %v, parent sliced at %v gives %v",
					i, res.Output.Data, res.Rate, want.Data)
			}
		}
	}
}

func TestGracefulShutdownFlushesPending(t *testing.T) {
	s, _ := testServer(t, nil)
	var chans []<-chan Result
	for i := 0; i < 3; i++ {
		ch, err := s.Submit(input(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Stop() // no tick ever fired: Stop must flush the pending window
	for _, ch := range chans {
		if res := <-ch; res.Output == nil {
			t.Fatal("flushed query got no output")
		}
	}
	if _, err := s.Submit(input(9)); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: %v, want ErrStopped", err)
	}
	s.Stop() // idempotent
}

func TestEmptyWindowsDispatchNothing(t *testing.T) {
	s, clk := testServer(t, nil)
	for i := 0; i < 5; i++ {
		clk.Tick(time.Second)
	}
	if st := s.Stats(); st.Batches != 0 || st.Processed != 0 {
		t.Fatalf("empty windows produced batches: %+v", st)
	}
}

func TestSubmitValidatesInputShape(t *testing.T) {
	s, _ := testServer(t, nil)
	if _, err := s.Submit(tensor.New(5)); err == nil {
		t.Fatal("want error for wrong input size")
	}
	if _, err := s.Submit(nil); err == nil {
		t.Fatal("want error for nil input")
	}
	// Element count alone is not enough: the model wants [4], so a [2, 2]
	// or [4, 1] tensor of the same size must be rejected too.
	if _, err := s.Submit(tensor.New(2, 2)); err == nil {
		t.Fatal("want error for same-size wrong-rank input")
	}
	if _, err := s.Submit(tensor.New(4, 1)); err == nil {
		t.Fatal("want error for same-size wrong-shape input")
	}
	if _, err := s.Submit(tensor.New(4)); err != nil {
		t.Fatalf("exact-shape input rejected: %v", err)
	}
}

// TestSubmitValidatesImageShape pins the motivating case: a [32, 3, 32]
// tensor has exactly as many elements as a [3, 32, 32] model input and used
// to slip through the size-only check.
func TestSubmitValidatesImageShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	s, err := New(Config{
		Model:      m,
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{3, 16, 16},
		SLO:        50 * time.Millisecond,
		SampleTime: func(r float64) float64 { return 1e-6 },
		Clock:      NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if _, err := s.Submit(tensor.New(16, 3, 16)); err == nil {
		t.Fatal("transposed image shape accepted")
	}
	if _, err := s.Submit(tensor.New(3, 16, 16)); err != nil {
		t.Fatalf("exact image shape rejected: %v", err)
	}
}

// TestNewRejectsMalformedConfig: each bad value is refused with an error
// naming its field — non-finite numbers included, which slip past the
// ordered comparisons (a NaN headroom made the policy window NaN, a NaN
// queue factor truncated the admission bound to one query, a NaN fixed rate
// served elastic).
func TestNewRejectsMalformedConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"rate", func(c *Config) { c.Rates = slicing.RateList{0.5, 0.25} }}, // not ascending, no 1.0
		{"rate", func(c *Config) { c.Rates = slicing.RateList{nan, 1} }},
		{"headroom", func(c *Config) { c.Headroom = nan }},
		{"headroom", func(c *Config) { c.Headroom = inf }},
		{"headroom", func(c *Config) { c.Headroom = -0.5 }},
		{"queue factor", func(c *Config) { c.QueueFactor = nan }},
		{"queue factor", func(c *Config) { c.QueueFactor = inf }},
		{"queue factor", func(c *Config) { c.QueueFactor = -inf }},
		{"fixed rate", func(c *Config) { c.FixedRate = nan }},
		{"fixed rate", func(c *Config) { c.FixedRate = inf }},
		{"fixed rate", func(c *Config) { c.FixedRate = -inf }},
		{"fixed rate", func(c *Config) { c.FixedRate = 0.3 }}, // not deployable
	} {
		cfg := Config{
			Model:      models.NewMLP(4, []int{8, 8}, 3, 4, rand.New(rand.NewSource(8))),
			Rates:      slicing.NewRateList(0.25, 4),
			InputShape: []int{4},
			SLO:        time.Second,
			SampleTime: func(r float64) float64 { return r * r },
		}
		tc.mutate(&cfg)
		s, err := New(cfg)
		if err == nil {
			s.Stop()
			t.Errorf("%s: New accepted a malformed config", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
}

func TestAdmissionUnboundedWhenSampleTimeZero(t *testing.T) {
	// A pre-profiled SampleTime of 0 means unlimited capacity; the limit
	// must saturate at MaxInt, not overflow through float conversion.
	s, _ := testServer(t, func(c *Config) {
		c.SampleTime = func(r float64) float64 { return 0 }
	})
	for i := 0; i < 50; i++ {
		if _, err := s.Submit(input(int64(i))); err != nil {
			t.Fatalf("submit %d rejected under unbounded capacity: %v", i, err)
		}
	}
}

func TestCalibratorObserveEWMA(t *testing.T) {
	c := &Calibrator{perSample: map[float64]float64{0.5: 1.0}, alpha: 0.1}
	c.Observe(0.5, 10, 20*time.Second) // 2 s/sample observed
	want := 0.9*1.0 + 0.1*2.0
	if got := c.SampleTime(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EWMA %v, want %v", got, want)
	}
	c.Observe(0.5, 0, time.Second) // ignored
	if got := c.SampleTime(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zero-sample observation moved the estimate to %v", got)
	}
	// A fake clock that does not advance during processing reports zero
	// elapsed; that must not collapse the estimate toward zero.
	c.Observe(0.5, 10, 0)
	if got := c.SampleTime(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zero-elapsed observation moved the estimate to %v", got)
	}
	s := newStaticCalibrator(slicing.RateList{0.5, 1}, func(r float64) float64 { return r })
	s.Observe(0.5, 10, time.Hour) // static calibrators never move
	if got := s.SampleTime(0.5); got != 0.5 {
		t.Fatalf("static calibrator moved to %v", got)
	}
}

// TestInjectedClockIsTheOnlyTimeSource pins the time-source unification:
// batch elapsed, per-query latency and uptime all flow through the injected
// Clock. Under a FakeClock that never advances during processing, worker
// busy time is exactly zero — any non-zero utilization means a wall-clock
// read (the old time.Now()/time.Since mix) leaked back into the arithmetic.
func TestInjectedClockIsTheOnlyTimeSource(t *testing.T) {
	s, clk := testServer(t, nil)
	ch, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	<-ch
	if st := s.Stats(); st.Utilization != 0 {
		t.Fatalf("utilization %v under a frozen fake clock; a wall-clock read leaked in", st.Utilization)
	}
}

func TestStartupCalibrationMeasuresEveryRate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rates := slicing.NewRateList(0.25, 4)
	model := models.NewMLP(4, []int{8, 8}, 3, 4, rng)
	s, err := New(Config{
		Model:      model,
		Rates:      rates,
		InputShape: []int{4},
		SLO:        time.Second,
		Clock:      NewFakeClock(time.Unix(0, 0)),
		// no SampleTime: the real calibrator must run
		CalibrationBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for _, r := range rates {
		if ts := s.Calibrator().SampleTime(r); ts <= 0 {
			t.Fatalf("rate %v calibrated to %v, want > 0", r, ts)
		}
	}
}
