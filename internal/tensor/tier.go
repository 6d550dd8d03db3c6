package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Engine tiers. The exact tier is the engine the rest of the repo was built
// on: scalar-identical AVX mul/add kernels, results bit-reproducible against
// the pure-Go oracle. The fma tier trades that bit-exactness for throughput
// under a documented accuracy budget: it keeps f64 operands and accumulation
// but contracts each multiply-add of the quad-axpy into a fused multiply-add
// (VFMADD on hardware, math.FMA in the scalar positions), halving the
// rounding steps and the arithmetic latency chain. Deviation from the exact
// engine is bounded by the dropped intermediate roundings — order 1e-16
// relative per flop, observed ≤1e-12 relative through every serving model,
// gated at 1e-9.
//
// The fma tier is deterministic: every scalar position (k-tails, narrow
// panels, non-FMA hosts) uses math.FMA, which is correctly rounded even in
// software, so an fma-tier product is bit-stable across the vector/scalar
// dispatch boundary, GOMAXPROCS, and hosts. Only the exact tier is
// bit-identical to the pre-tier engine.

// EngineTier selects the kernel family for a single GEMM call. The zero
// value is the exact tier, so untiered callers keep their old semantics.
type EngineTier uint8

const (
	// TierExact is the bit-reproducible f64 engine (default).
	TierExact EngineTier = iota
	// TierFMA uses fused multiply-add kernels over f64 operands.
	TierFMA

	// NumTiers bounds per-tier arrays (kernel counters).
	NumTiers = 2
)

// String returns the tier's config-file spelling ("exact", "fma").
func (t EngineTier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierFMA:
		return "fma"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ColBlock is the column width the tier's vector kernel steps C by: one
// 4-lane vector on the exact tier, the 4×8 dot kernel's eight columns on the
// fma tier. A product whose n is a multiple of it runs no column tail, so a
// caller free to widen n (the shifted-row grid) rounds it up to this.
func (t EngineTier) ColBlock() int {
	if t == TierFMA {
		return 8
	}
	return 4
}

// ParseTier parses a config spelling into an EngineTier. The empty string
// parses as TierExact so absent config keys need no special-casing.
func ParseTier(s string) (EngineTier, error) {
	switch s {
	case "", "exact":
		return TierExact, nil
	case "fma":
		return TierFMA, nil
	}
	return TierExact, fmt.Errorf("tensor: unknown engine tier %q (want exact or fma)", s)
}

// TierFromEnv reads the MS_ENGINE_TIER environment variable and returns the
// requested tier, downgrading to TierExact when the variable is unset,
// unparsable, or names the fma tier on a host without FMA hardware (where the
// software-FMA fallback would be correct but slower than the exact engine —
// the opposite of what an opt-in fast tier promises). This is the default
// tier for new slicing.Shared instances, letting CI sweep the whole test
// suite per tier without code changes.
func TierFromEnv() EngineTier {
	t, err := ParseTier(os.Getenv("MS_ENGINE_TIER"))
	if err != nil || (t != TierExact && !useFMA) {
		return TierExact
	}
	return t
}

// HasAVX reports whether the exact tier's vector kernels are available.
func HasAVX() bool { return useAVX }

// HasFMA reports whether the fma tier's fused kernels are available in
// hardware. The tier still runs without it (math.FMA software fallback,
// same bits) but loses its speed advantage.
func HasFMA() bool { return useFMA }

// Per-tier kernel dispatch counters, indexed by EngineTier. One count per
// micro-panel of the blocked engine — a C tile of at most 256 columns, or
// 256·kh·kw for shifted rows — not per asm call: the granularity at which the
// vector-vs-scalar choice is made. GemmShiftTB makes that choice, and counts,
// once per call. The small strided loops (gemmTASimple, gemmTBSimple) are not
// counted.
var (
	kernelVectorCount [NumTiers]atomic.Int64
	kernelScalarCount [NumTiers]atomic.Int64
)

// countPanel records one micro-panel dispatch of tier on its vector kernel
// or on its scalar loops.
func countPanel(tier EngineTier, vec bool) {
	if vec {
		kernelVectorCount[tier].Add(1)
	} else {
		kernelScalarCount[tier].Add(1)
	}
}

// KernelCounters is the per-tier slice of the engine's dispatch counters.
type KernelCounters struct {
	// Vector counts micro-panel dispatches that took the tier's vector
	// kernel (AVX for exact, FMA for fma).
	Vector int64
	// Scalar counts dispatches that stayed on the pure-Go loops: narrow
	// panels (below vecMinCols) and hosts without the needed ISA.
	Scalar int64
}
