package server

import (
	"sync"
	"time"

	"modelslicing/internal/faults"
	"modelslicing/internal/slicing"
)

// Calibrator maintains the measured per-sample inference time t(r) for every
// deployable rate. The paper's analysis assumes t(r) = t·r² (Equation 3);
// real layer stacks deviate — input/output layers are excluded from slicing,
// GEMM efficiency varies with width — so the server measures t(r) on its own
// hardware at startup and keeps refining it with an exponentially weighted
// average of observed batch times. The Equation-3 policy then budgets against
// reality instead of the idealization.
//
// t(r) is the *pool-effective* per-sample time: both the startup measurement
// and online observations time whole batches through the sharded worker
// pool, so the scalar already reflects worker parallelism. Small batches
// (fewer samples than workers) have a higher effective per-sample cost than
// the estimate, but a batch that small is far from the window's capacity
// boundary, where the estimate is the one that matters — so observations
// from tiny batches are excluded rather than letting their fixed overhead
// whip the EWMA around.
type Calibrator struct {
	mu        sync.RWMutex
	perSample map[float64]float64 // rate → seconds per sample
	alpha     float64             // EWMA weight of a new observation
	minN      int                 // smallest batch worth folding in
	rampLeft  int                 // observations left at the boosted post-swap alpha
}

// ewmaAlpha weights online observations: high enough to track thermal or
// load drift within a few hundred batches, low enough that one noisy batch
// cannot flip the policy.
const ewmaAlpha = 0.1

// rampAlpha is the boosted observation weight during a post-swap
// recalibration ramp: heavy enough that a handful of windows pulls t(r)
// onto the new model, still averaging enough that one noisy batch cannot
// set it alone.
const rampAlpha = 0.5

// newStaticCalibrator pins t(r) to a fixed curve and ignores observations —
// used by tests and by callers that already profiled their model.
func newStaticCalibrator(rates slicing.RateList, sampleTime func(r float64) float64) *Calibrator {
	c := &Calibrator{perSample: make(map[float64]float64), alpha: 0}
	for _, r := range rates {
		c.perSample[r] = sampleTime(r)
	}
	return c
}

// SampleTime returns the current estimate of t(r) in seconds.
func (c *Calibrator) SampleTime(r float64) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.perSample[r]
}

// set stores a startup measurement.
func (c *Calibrator) set(r, perSample float64) {
	c.mu.Lock()
	c.perSample[r] = perSample
	c.mu.Unlock()
}

// Observe folds a served batch's measured duration into the estimate.
// Batches smaller than the calibration batch are ignored (see type doc), as
// are non-positive durations: batch times come from the injected clock, and
// a fake clock that does not advance during processing must not collapse
// the estimates to zero.
func (c *Calibrator) Observe(r float64, n int, elapsed time.Duration) {
	if n < c.minN || n <= 0 || c.alpha == 0 || elapsed <= 0 {
		return
	}
	if faults.Should(faults.CalibrationSkew) {
		// Chaos harness: feed the EWMA a wildly pessimistic observation, as a
		// thermal spike or a noisy neighbor would. The policy must degrade
		// rates, not crash or wedge, and recover as clean observations
		// return.
		elapsed *= 8
	}
	perSample := elapsed.Seconds() / float64(n)
	c.mu.Lock()
	alpha := c.alpha
	if c.rampLeft > 0 {
		// Post-swap ramp: the stored estimates were seeded by a brief
		// recalibration of the new model; weigh live observations heavily
		// until the ramp is spent so t(r) locks onto production reality fast.
		alpha = rampAlpha
		c.rampLeft--
	}
	if old, ok := c.perSample[r]; ok {
		c.perSample[r] = (1-alpha)*old + alpha*perSample
	} else {
		c.perSample[r] = perSample
	}
	c.mu.Unlock()
}

// Ramp arms the post-swap recalibration ramp: the next n qualifying
// observations fold in at rampAlpha instead of the steady-state EWMA weight.
// No-op on a static calibrator (which ignores observations entirely).
func (c *Calibrator) Ramp(n int) {
	if c.alpha == 0 {
		return
	}
	c.mu.Lock()
	c.rampLeft = n
	c.mu.Unlock()
}

// rampRemaining returns how many observations of the post-swap ramp are left.
func (c *Calibrator) rampRemaining() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rampLeft
}

// appendTimes appends the current estimates to dst as t(r) table rows, in
// map order.
func (c *Calibrator) appendTimes(dst []RateTime) []RateTime {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for r, t := range c.perSample {
		dst = append(dst, RateTime{Rate: r, Seconds: t})
	}
	return dst
}

// Snapshot returns a copy of the current per-rate estimates (for /metrics).
func (c *Calibrator) Snapshot() map[float64]float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[float64]float64, len(c.perSample))
	for r, t := range c.perSample {
		out[r] = t
	}
	return out
}
