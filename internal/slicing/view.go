package slicing

import (
	"sync"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// Shared serves every slice rate from one read-only parent weight set — the
// zero-copy alternative to deploying Extract-ed subnet copies. Because the
// GEMM kernels take leading dimensions, slicing at rate r reads the leading
// prefix of each parent weight buffer in place; nothing is materialized per
// rate, so serving G rates from W workers costs O(params) memory instead of
// the O(W·G·params) of per-worker Extract replica sets. Output rescaling
// (Dense/RNN Rescale) is applied on the activations at inference time, which
// computes the same function the Extract path bakes into its copied weights.
// Weight-bearing layers lazily build one micro-panel pack per active width —
// under a once-per-width lock, then lock-free and read-only for all server
// workers — so serving memory stays O(params + packs), with packs reported
// by PackCacheBytes.
//
// A Shared is safe for concurrent use: the inference path (nn.Infer) never
// writes to the model, and each call's activations come from the caller's
// arena. Extract remains the right tool for exporting a standalone small
// model out of the trained parent (Section 3.1's deployment story); Shared
// is the right tool for serving many rates live from one process.
type Shared struct {
	model nn.Layer
	// fused is the inference-optimized peephole-fused view of model
	// (nn.Fuse): Conv→BN(→ReLU) chains collapse into epilogue GEMMs with
	// the SwitchableBatchNorm running statistics folded per width into
	// O(widths·channels) scale/shift vectors, Dense→ReLU and Norm→ReLU
	// chains into single passes. It shares the parent's weight buffers, so
	// slicing still reads prefix views in place.
	fused nn.Layer
	rates RateList
	// tier selects the GEMM engine tier of every inference pass's packed
	// weight products (tensor/tier.go): exact by default, fma when the
	// operator accepts the tier's pinned accuracy budget for its throughput.
	tier tensor.EngineTier
}

// NewShared wraps a trained parent model and its rate list for zero-copy
// multi-rate inference. The model must not be trained (or otherwise mutated)
// while the Shared is in use — in particular, the fused serving view bakes
// BatchNorm running statistics at construction time.
func NewShared(model nn.Layer, rates RateList) *Shared {
	rates.Validate()
	return &Shared{model: model, fused: nn.Fuse(model), rates: rates, tier: tensor.TierFromEnv()}
}

// Rates returns the deployable slice-rate list.
func (s *Shared) Rates() RateList { return s.rates }

// Model returns the underlying parent network.
func (s *Shared) Model() nn.Layer { return s.model }

// SetTier selects the GEMM engine tier for every subsequent inference pass.
// The default comes from MS_ENGINE_TIER at construction (exact when unset or
// on hosts without FMA). Call before serving; the value is read
// concurrently by inference workers. Switching tiers keeps already-built
// packs — both tiers stream the same f64 panels.
func (s *Shared) SetTier(t tensor.EngineTier) { s.tier = t }

// Tier returns the engine tier inference passes run at.
func (s *Shared) Tier() tensor.EngineTier { return s.tier }

// PackCacheBytes reports the resident per-width weight-pack memory this
// Shared's model is holding — the O(packs) term of the serving memory story,
// exposed as a gauge on the server's /metrics.
func (s *Shared) PackCacheBytes() int64 { return nn.PackCacheBytes(s.model) }

// EngineStats summarizes the shared engine's resource posture for the
// observability layer: resident pack memory, the engine tier, and how many
// rates the one weight set is serving.
type EngineStats struct {
	PackCacheBytes int64
	Tier           tensor.EngineTier
	Rates          int
}

// Stats snapshots the engine-level counters the serving metrics report.
func (s *Shared) Stats() EngineStats {
	return EngineStats{
		PackCacheBytes: s.PackCacheBytes(),
		Tier:           s.tier,
		Rates:          len(s.rates),
	}
}

// ctxPool recycles inference contexts so a steady-state Shared.Infer call
// allocates nothing (the context escapes into the Layer interface call and
// would otherwise cost one heap allocation per pass).
var ctxPool = sync.Pool{New: func() any { return &nn.Context{} }}

// Infer runs one inference pass through the fused serving view at the
// member of the rate list nearest r (so an off-list rate slices and
// normalizes as one width), drawing activations from arena (which may be
// nil for heap allocation). The returned tensor's storage is owned by the
// arena and is valid until the caller resets it. Concurrent callers must use
// distinct arenas.
func (s *Shared) Infer(r float64, x *tensor.Tensor, arena *tensor.Arena) *tensor.Tensor {
	return s.infer(s.fused, r, x, arena)
}

// InferUnfused runs the same pass through the original, unfused layer graph.
// It is the equivalence oracle for the fused path: outputs agree with Infer
// to ≤1e-12 at every rate (bit-identical except where BatchNorm folding
// refactors the arithmetic).
func (s *Shared) InferUnfused(r float64, x *tensor.Tensor, arena *tensor.Arena) *tensor.Tensor {
	return s.infer(s.model, r, x, arena)
}

func (s *Shared) infer(model nn.Layer, r float64, x *tensor.Tensor, arena *tensor.Arena) *tensor.Tensor {
	r = s.rates.Nearest(r)
	ctx := ctxPool.Get().(*nn.Context)
	*ctx = nn.Context{Rate: r, WidthIdx: s.rates.WidthIdx(r), Arena: arena, Tier: s.tier}
	y := model.Infer(ctx, x)
	ctxPool.Put(ctx)
	return y
}
