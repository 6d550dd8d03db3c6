package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
)

// signatureModel builds a tiny MLP whose output is sig on every class
// regardless of input and slice rate: all weights are zero, so the hidden
// activations vanish and the output is exactly the final-layer bias. Two such
// models with different signatures make "which weights served this query"
// directly observable — the heart of the swap tests.
func signatureModel(sig float64) nn.Layer {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential(
		nn.NewDense(4, 8, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(8, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	params := m.Params()
	for _, p := range params {
		p.Value.Zero()
	}
	bias := params[len(params)-1] // Dense params are [W, B]; last is the output bias
	for i := range bias.Value.Data {
		bias.Value.Data[i] = sig
	}
	return m
}

// TestSwapLockstepZeroDowntime is the acceptance test for zero-downtime model
// ops: under FakeClock lockstep, a Swap between windows must (a) err or drop
// no accepted query, (b) let in-flight shards — including one stalled
// mid-compute across the swap — finish on the OLD weights, (c) serve every
// post-swap window from the NEW weights, and (d) have the first post-swap
// window decide its rate from the recalibrated t(r), not the old curve.
func TestSwapLockstepZeroDowntime(t *testing.T) {
	defer faults.Reset()
	const sigA, sigB = 3.0, -5.0
	// t(r) flips from r² (capacity 1 at rate 1.0 in the 1 s window) to r²/4
	// (capacity 4 at rate 1.0) when the swap happens: the new model is 4x
	// faster, and only a recalibrated policy can see that.
	var swapped atomic.Bool
	s, clk := testServer(t, func(c *Config) {
		c.Model = signatureModel(sigA)
		c.SampleTime = func(r float64) float64 {
			if swapped.Load() {
				return r * r / 4
			}
			return r * r
		}
	})

	// Window 1 on model A: two queries over two workers → two single-query
	// shards, one of which stalls inside compute holding model A.
	if err := faults.Enable(faults.ShardStall, "first1"); err != nil {
		t.Fatal(err)
	}
	ch1a, err := s.Submit(input(1))
	if err != nil {
		t.Fatal(err)
	}
	ch1b, err := s.Submit(input(2))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	waitFired(t, faults.ShardStall, 1)

	// Swap to model B while window 1 is still in flight.
	swapped.Store(true)
	info := ModelInfo{Epoch: 7, CRC: 0xdeadbeef, Path: "b.ckpt"}
	if err := s.Swap(slicing.NewShared(signatureModel(sigB), testServerRates()), info); err != nil {
		t.Fatal(err)
	}

	// Window 2 closes after the swap: it must serve model B at the rate the
	// recalibrated t(r) admits — 1.0, where the old curve only afforded 0.5.
	ch2a, err := s.Submit(input(3))
	if err != nil {
		t.Fatal(err)
	}
	ch2b, err := s.Submit(input(4))
	if err != nil {
		t.Fatal(err)
	}
	clk.Tick(time.Second)
	for _, ch := range []<-chan Result{ch2a, ch2b} {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("post-swap query erred across the swap: %v", res.Err)
		}
		if res.Output.Data[0] != sigB {
			t.Fatalf("post-swap query served output %v, want new-model signature %v", res.Output.Data[0], sigB)
		}
		if res.Rate != 1.0 {
			t.Fatalf("first post-swap window served at rate %v; recalibrated t(r) admits 1.0", res.Rate)
		}
	}

	// Release the stalled shard: it must complete on the OLD weights (its
	// window captured model A before the swap) and err nothing.
	faults.Disable(faults.ShardStall)
	for _, ch := range []<-chan Result{ch1a, ch1b} {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("pre-swap query erred across the swap: %v", res.Err)
		}
		if res.Output.Data[0] != sigA {
			t.Fatalf("in-flight query served output %v, want old-model signature %v", res.Output.Data[0], sigA)
		}
		if res.Rate != 0.5 {
			t.Fatalf("pre-swap window served at rate %v; the old t(r) admits 0.5", res.Rate)
		}
	}

	// Identity and swap accounting followed the model.
	if got := s.ModelInfo(); got != info {
		t.Fatalf("ModelInfo = %+v, want %+v", got, info)
	}
	st := s.Stats()
	if st.Swaps != 1 {
		t.Fatalf("Swaps = %d, want 1", st.Swaps)
	}
	if st.ModelEpoch != 7 || st.ModelCRC != 0xdeadbeef {
		t.Fatalf("model identity = epoch %d crc %08x, want 7/deadbeef", st.ModelEpoch, st.ModelCRC)
	}
	// A static calibrator folds no observation, so it has no ramp to count.
	if st.SwapRampWindows != 0 {
		t.Fatalf("SwapRampWindows = %d on a static calibrator, want 0", st.SwapRampWindows)
	}
}

// TestSwapRampCountsObservedWindows: the swap-ramp gauge counts the windows
// the calibrator folds at the boosted weight. Windows smaller than a measured
// calibrator's floor, minObservedBatch, are not observed, so they leave the
// ramp where Swap armed it; a full-size window takes exactly one off.
func TestSwapRampCountsObservedWindows(t *testing.T) {
	const calBatch = minObservedBatch
	// A t(r) small enough that a calBatch window is admitted whole and runs
	// as one shard: one gate release a window.
	s, clk, gate := gatedServerWith(t, func(c *Config) {
		c.SampleTime = func(r float64) float64 { return 1e-6 * r * r }
	})
	// An EWMA calibrator that sees a millisecond of worker time per shard.
	gate.passed = func() { clk.Advance(time.Millisecond) }
	s.cal.alpha, s.cal.minN = ewmaAlpha, calBatch
	if err := s.Swap(slicing.NewShared(s.cfg.Model, s.cfg.Rates), ModelInfo{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	window := func(n int) int {
		t.Helper()
		chans := submitN(t, s, n)
		clk.Tick(time.Second)
		gate.release()
		for _, ch := range chans {
			if res := <-ch; res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		return s.Stats().SwapRampWindows
	}
	if got := s.Stats().SwapRampWindows; got != swapRampWindows {
		t.Fatalf("after Swap: SwapRampWindows = %d, want %d", got, swapRampWindows)
	}
	for i := 0; i < 3; i++ {
		if got := window(calBatch - 1); got != swapRampWindows {
			t.Fatalf("after %d windows under the floor: SwapRampWindows = %d, want %d", i+1, got, swapRampWindows)
		}
	}
	if got := window(calBatch); got != swapRampWindows-1 {
		t.Fatalf("after one observed window: SwapRampWindows = %d, want %d", got, swapRampWindows-1)
	}
}

// TestSwapRejectsInvalidModels pins Swap's validation: nil models and
// mismatched rate lists must be refused without touching the served model.
func TestSwapRejectsInvalidModels(t *testing.T) {
	s, _ := testServer(t, nil)
	if err := s.Swap(nil, ModelInfo{}); err == nil {
		t.Fatal("Swap accepted a nil model")
	}
	wrong := slicing.NewShared(signatureModel(1), slicing.NewRateList(0.5, 2))
	if err := s.Swap(wrong, ModelInfo{}); err == nil {
		t.Fatal("Swap accepted a mismatched rate list")
	}
	if got := s.Stats().Swaps; got != 0 {
		t.Fatalf("failed swaps counted: %d", got)
	}
}

// TestSwapHammer races live traffic against repeated swaps on the real
// clock: every accepted query must be answered without error and carry
// exactly one of the two models' signatures — never a torn mix — and the
// swap counter must account for every completed swap. Run under -race in CI
// at GOMAXPROCS=1 and 2.
func TestSwapHammer(t *testing.T) {
	const sigA, sigB = 2.0, -9.0
	rates := testServerRates()
	cfg := Config{
		Model:             signatureModel(sigA),
		Rates:             rates,
		InputShape:        []int{4},
		SLO:               20 * time.Millisecond,
		Workers:           2,
		QueueFactor:       1000,
		MaxBacklogWindows: 1000,
		SampleTime:        func(r float64) float64 { return 1e-6 * r * r },
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	const swaps = 20
	done := make(chan struct{})
	// progress carries a token after each served query, so the swap loop
	// can wait for traffic instead of sleeping.
	progress := make(chan struct{}, 1)
	var served, badSig atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.Predict(input(seed))
				if err != nil {
					// Overload shedding is fine under the hammer; anything
					// else would have failed res.Err below anyway.
					continue
				}
				served.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
				if got := res.Output.Data[0]; got != sigA && got != sigB {
					badSig.Add(1)
				}
			}
		}(int64(p))
	}
	shareds := [2]*slicing.Shared{
		slicing.NewShared(signatureModel(sigA), rates),
		slicing.NewShared(signatureModel(sigB), rates),
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < swaps; i++ {
		if err := s.Swap(shareds[i%2], ModelInfo{Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		// Let at least one query complete after this swap before the next.
		// A token consumed here may predate the swap, so recheck the count.
		for n := served.Load(); served.Load() == n; {
			select {
			case <-progress:
			case <-deadline:
				close(done)
				wg.Wait()
				t.Fatalf("swap %d: no query served within 30 s of the first swap", i)
			}
		}
	}
	close(done)
	wg.Wait()
	if badSig.Load() != 0 {
		t.Fatalf("%d/%d queries served a torn or unknown weight set", badSig.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("hammer served no queries")
	}
	if got := s.Stats().Swaps; got != swaps {
		t.Fatalf("Swaps = %d, want %d", got, swaps)
	}
}
