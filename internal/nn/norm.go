package nn

import (
	"fmt"
	"math"

	"modelslicing/internal/tensor"
)

// GroupNorm normalizes channels within contiguous groups (Wu & He, 2018),
// the paper's replacement for batch normalization under model slicing
// (Section 3.2): because statistics are computed per sample within each
// group, the output scale is independent of how many input channels are
// active, and the normalization layer can be sliced at group granularity
// together with the convolution it follows.
//
// Inputs may be rank 4 ([B, C, H, W]) or rank 2 ([B, C], treated as H=W=1).
type GroupNorm struct {
	C int
	// NormGroups is the number of normalization groups G in Equation 6.
	NormGroups int
	// Spec controls channel slicing. When Spec.Slice is set, NewGroupNorm
	// requires NormGroups and Spec.Groups to divide one into the other. If
	// NormGroups is a multiple of Spec.Groups, each slice group holds whole
	// normalization groups and every rate is served. Otherwise a
	// normalization group spans several slice groups, and a rate whose
	// active width is not a whole number of them panics.
	Spec SliceSpec
	Eps  float64

	Gamma *Param // [C] scale (the γ visualized in Figure 6)
	Beta  *Param // [C] shift

	// cached forward state: the input and, per (sample, active group), its
	// mean and 1/σ as a pair; Backward recomputes x̂ from them.
	x     *tensor.Tensor
	stats []float64
	aC    int
	hw    int
}

// NewGroupNorm constructs a group-norm layer. normGroups must divide c, and
// for sliceability the slice-group size (c/spec.Groups) must be a multiple of
// the normalization group size (c/normGroups), i.e. normGroups must be a
// multiple of spec.Groups or equal to it. The common configuration — used
// throughout the experiments — is normGroups == spec.Groups.
func NewGroupNorm(c, normGroups int, spec SliceSpec, eps float64) *GroupNorm {
	if c%normGroups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: %d channels not divisible by %d groups", c, normGroups))
	}
	spec.Validate("GroupNorm", c)
	if spec.Slice && normGroups%spec.Groups != 0 && spec.Groups%normGroups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: norm groups %d incompatible with %d slice groups", normGroups, spec.Groups))
	}
	g := &GroupNorm{
		C: c, NormGroups: normGroups, Spec: spec, Eps: eps,
		Gamma: NewParam("gn.gamma", false, c),
		Beta:  NewParam("gn.beta", false, c),
	}
	g.Gamma.Value.Fill(1)
	return g
}

// activeGroups returns the number of normalization groups inside the active
// width aC.
func (g *GroupNorm) activeGroups(aC int) int {
	gs := g.C / g.NormGroups // channels per normalization group
	if aC%gs != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: active width %d not divisible by group size %d", aC, gs))
	}
	return aC / gs
}

// Forward normalizes the active channels group-wise per sample and caches
// x with each (sample, group)'s mean and 1/σ, not x̂.
func (g *GroupNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := g.startForward(ctx, x)
	g.normalize(y.Data, denseLayout(g.aC, 1, g.hw), g.stats, x.Data, x.Dim(0), g.activeGroups(g.aC), g.packedGroup(g.hw), g.aC*g.hw, false)
	return y
}

// startForward validates x, caches it for Backward with room for its
// statistics, and returns an uninitialized output of its shape. A fused
// Conv→GroupNorm→ReLU (FusedConvAct) calls it with the conv's output.
func (g *GroupNorm) startForward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	g.aC = g.Spec.Active(ctx.EffRate(), g.C)
	batch, hw := normShape("GroupNorm", x, g.aC)
	arena := arenaOf(ctx)
	g.x, g.hw = x, hw
	g.stats = arena.GetUninit(2 * batch * g.activeGroups(g.aC)).Data
	return arena.GetUninit(x.Shape...)
}

// Infer normalizes the active channels group-wise per sample on the
// read-only inference path (no x̂ cache, arena-backed output).
func (g *GroupNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return g.inferAct(ctx, x, false)
}

// inferAct is Infer with an optionally fused trailing ReLU: the clamp rides
// the normalization's write pass, which removes the separate ReLU layer's
// full read+write sweep over the activation. GroupNorm statistics are
// per-sample and data-dependent, so unlike BatchNorm the normalization never
// folds into the preceding convolution's GEMM epilogue; after a same
// convolution it runs in the conv's grid pass instead (FusedConvAct).
func (g *GroupNorm) inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	aC := g.Spec.Active(ctx.EffRate(), g.C)
	batch, hw := normShape("GroupNorm", x, aC)
	ag := g.activeGroups(aC)
	y := arenaOf(ctx).GetUninit(x.Shape...)
	g.normalize(y.Data, denseLayout(aC, 1, hw), nil, x.Data, batch, ag, g.packedGroup(hw), aC*hw, relu)
	return y
}

// packedGroup is one normalization group of packed hw-element planes.
func (g *GroupNorm) packedGroup(hw int) tensor.Grid {
	return tensor.Grid{Ch: g.C / g.NormGroups, Rows: 1, Cols: hw, LD: hw, CS: hw}
}

// normalize is the one kernel behind Forward, Infer and the fused conv's
// grid pass (Conv2D.shiftConv), so all three agree bit for bit. Group gi of
// sample b is the window group at src[b·sampleStride + gi·group.Ch·group.CS:]:
// packed planes, or the shifted conv's product grid. Per (sample, group): a
// two-pass mean and variance over the group's packed segment
// (tensor.SumGrid, tensor.SumSqDevGrid, in tensor.Sum's order wherever the
// windows lie), then one scale-shift pass with each channel's γ and β
// (tensor.NormAffineGrid) into sample b's planes of dst. Their layout out
// either has rows as long as the group's (packed planes: each group's
// packed segment) or the group's row stride (the next conv's padded image,
// written at out's channel stride). Training passes stats, which receives
// each (sample, group)'s mean and 1/σ.
func (g *GroupNorm) normalize(dst []float64, out layout, stats, src []float64, batch, ag int, group tensor.Grid, sampleStride int, relu bool) {
	n := group.Len() // elements per (sample, group)
	dcs := 0
	if out.ld != group.Cols {
		dcs = out.cs
	}
	gamma, beta := g.Gamma.Value.Data, g.Beta.Value.Data
	for b := 0; b < batch; b++ {
		for gi := 0; gi < ag; gi++ {
			seg := src[b*sampleStride+gi*group.Ch*group.CS:]
			mu := tensor.SumGrid(seg, group) / float64(n)
			va := tensor.SumSqDevGrid(seg, group, mu) / float64(n)
			is := 1 / math.Sqrt(va+g.Eps)
			if stats != nil {
				stats[2*(b*ag+gi)], stats[2*(b*ag+gi)+1] = mu, is
			}
			ch := gi * group.Ch
			tensor.NormAffineGrid(dst[out.at(b, ch):], dcs, seg, group, mu, is, gamma[ch:], beta[ch:], relu)
		}
	}
}

// normShape validates a normalization input of rank 4 ([B, C, H, W]) or
// rank 2 ([B, C]) without mutating layer state, returning batch and the
// spatial extent per channel.
func normShape(name string, x *tensor.Tensor, want int) (batch, hw int) {
	switch x.Rank() {
	case 4:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: %s input %v, want %d channels", name, x.Shape, want))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	case 2:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: %s input %v, want %d features", name, x.Shape, want))
		}
		return x.Dim(0), 1
	default:
		panic(fmt.Sprintf("nn: %s input rank %d unsupported", name, x.Rank()))
	}
}

// Backward accumulates dGamma, dBeta, returns dx and drops the cached input
// and statistics. Each sample runs backwardSample into its packed dx planes.
func (g *GroupNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if g.x == nil || len(dy.Data) != len(g.x.Data) {
		panic(fmt.Sprintf("nn: GroupNorm.Backward grad %v without a matching Forward", dy.Shape))
	}
	arena := arenaOf(ctx)
	dx := arena.GetUninit(g.x.Shape...)
	batch := g.x.Dim(0)
	part := arena.GetUninit(2 * batch * g.aC).Data
	plane := g.aC * g.hw
	ag := g.activeGroups(g.aC)
	group := g.packedGroup(g.hw)
	for b := 0; b < batch; b++ {
		lo := b * plane
		g.backwardSample(dx.Data[lo:], group, dy.Data[lo:lo+plane], g.x.Data[lo:lo+plane], g.stats[2*b*ag:], ag, false, part[2*b*g.aC:], nil)
	}
	g.addPartials(part, batch)
	return dx
}

// backwardSample is GroupNorm's backward for one sample's ag groups, given
// its packed input x and output gradient dy planes and its (mean, 1/σ)
// pairs. Per channel, tensor.NormGradSums recomputes x̂ in-register and
// returns Σ dy and Σ dy·x̂ in tensor.Sum's order, the channel's shares of dβ
// and dγ, which go to part (two per channel) for addPartials to add in
// sample order; tensor.NormGrad then writes dx. With relu set dy is a
// trailing ReLU's output gradient and passes only where γ·x̂+β > 0, as
// ReLU.Backward would pass it. Channel c's dx lands in the window of dst at
// c·out.CS, out.Rows rows of out.Cols at stride out.LD (out.Ch is the
// group's channel count): packed planes directly, the shifted conv's padded
// dy image through tmp, a plane of scratch.
func (g *GroupNorm) backwardSample(dst []float64, out tensor.Grid, dy, x, stats []float64, ag int, relu bool, part, tmp []float64) {
	gs, hw := out.Ch, out.Rows*out.Cols
	packed := out.LD == out.Cols
	n := float64(gs * hw)
	gamma, beta := g.Gamma.Value.Data, g.Beta.Value.Data
	for gi := 0; gi < ag; gi++ {
		mu, is := stats[2*gi], stats[2*gi+1]
		sumDxhat, sumDxhatXhat := 0.0, 0.0
		for ch := gi * gs; ch < (gi+1)*gs; ch++ {
			sumG, sumGH := tensor.NormGradSums(dy[ch*hw:(ch+1)*hw], x[ch*hw:(ch+1)*hw], mu, is, gamma[ch], beta[ch], relu)
			part[2*ch], part[2*ch+1] = sumGH, sumG
			sumDxhat += float64(gamma[ch] * sumG)
			sumDxhatXhat += float64(gamma[ch] * sumGH)
		}
		mDxhat := sumDxhat / n
		mDxhatXhat := sumDxhatXhat / n
		for ch := gi * gs; ch < (gi+1)*gs; ch++ {
			d := dst[ch*out.CS:]
			if !packed {
				d = tmp[:hw]
			}
			tensor.NormGrad(d, dy[ch*hw:(ch+1)*hw], x[ch*hw:(ch+1)*hw], mu, is, gamma[ch], beta[ch], mDxhat, mDxhatXhat, relu)
			if !packed {
				tensor.CopyRows(out.Rows, out.Cols, dst[ch*out.CS:], out.LD, d, out.Cols)
			}
		}
	}
}

// addPartials adds the per-sample dγ and dβ shares backwardSample left in
// part to the gradients in sample order, the order one loop over the samples
// would have added them in, and drops the forward cache.
func (g *GroupNorm) addPartials(part []float64, batch int) {
	dgamma, dbeta := g.Gamma.Grad().Data, g.Beta.Grad().Data
	for b := 0; b < batch; b++ {
		p := part[2*b*g.aC:]
		for ch := 0; ch < g.aC; ch++ {
			dgamma[ch] += p[2*ch]
			dbeta[ch] += p[2*ch+1]
		}
	}
	g.x, g.stats = nil, nil
}

// Params returns γ and β.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }

// GammaGroupMeans returns the mean |γ| per slice group over the full width —
// the quantity visualized in Figure 6 of the paper.
func (g *GroupNorm) GammaGroupMeans() []float64 {
	groups := g.Spec.Groups
	gs := g.C / groups
	out := make([]float64, groups)
	for gi := 0; gi < groups; gi++ {
		s := 0.0
		for j := 0; j < gs; j++ {
			s += math.Abs(g.Gamma.Value.Data[gi*gs+j])
		}
		out[gi] = s / float64(gs)
	}
	return out
}

// BatchNorm is standard batch normalization with running statistics. Under
// model slicing the running estimates destabilize as the active width varies
// (Section 3.2) — it is provided for the conventionally-trained baselines and
// as the building block of SwitchableBatchNorm (SlimmableNet).
//
// Inputs may be rank 4 ([B, C, H, W]) or rank 2 ([B, C]).
type BatchNorm struct {
	C        int
	Spec     SliceSpec
	Eps      float64
	Momentum float64 // running = (1-m)*running + m*batch

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	// cached training state: the input and, per active channel, its batch
	// mean and 1/σ as a pair; Backward recomputes x̂ from them.
	x      *tensor.Tensor
	stats  []float64
	aC, hw int
}

// NewBatchNorm constructs a batch-norm layer with PyTorch-style defaults.
func NewBatchNorm(c int, spec SliceSpec) *BatchNorm {
	spec.Validate("BatchNorm", c)
	b := &BatchNorm{
		C: c, Spec: spec, Eps: 1e-5, Momentum: 0.1,
		Gamma:   NewParam("bn.gamma", false, c),
		Beta:    NewParam("bn.beta", false, c),
		RunMean: tensor.New(c),
		RunVar:  tensor.New(c),
	}
	b.Gamma.Value.Fill(1)
	b.RunVar.Fill(1)
	return b
}

// Forward normalizes per channel, with batch statistics during training and
// running estimates during evaluation. Training caches x with each channel's
// mean and 1/σ, not x̂, and moves the running estimates; evaluation caches
// nothing.
func (b *BatchNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	aC := b.Spec.Active(ctx.EffRate(), b.C)
	batch, hw := normShape("BatchNorm", x, aC)
	arena := arenaOf(ctx)
	b.x, b.stats = nil, nil
	if ctx != nil && ctx.Training {
		b.x, b.aC, b.hw = x, aC, hw
		b.stats = arena.GetUninit(2 * aC).Data
		b.batchStats(x.Data, batch)
	}
	y := arena.GetUninit(x.Shape...)
	b.normalize(y.Data, x.Data, b.stats, batch, aC, hw, false)
	return y
}

// batchStats fills b.stats with each active channel's batch mean and 1/σ
// and moves the running estimates toward them. Channel c's batch is the
// window grid of its plane in every sample, read in place: a two-pass mean
// and variance (tensor.SumGrid, tensor.SumSqDevGrid) as GroupNorm takes them.
func (b *BatchNorm) batchStats(x []float64, batch int) {
	n := float64(batch * b.hw)
	plane := tensor.Grid{Ch: 1, Rows: batch, Cols: b.hw, LD: b.aC * b.hw, CS: b.hw}
	for c := 0; c < b.aC; c++ {
		seg := x[c*b.hw:]
		mu := tensor.SumGrid(seg, plane) / n
		va := tensor.SumSqDevGrid(seg, plane, mu) / n
		b.stats[2*c], b.stats[2*c+1] = mu, 1/math.Sqrt(va+b.Eps)
		// Unbiased variance for the running estimate, as in PyTorch.
		if n > 1 {
			va *= n / (n - 1)
		}
		b.RunMean.Data[c] = (1-b.Momentum)*b.RunMean.Data[c] + b.Momentum*mu
		b.RunVar.Data[c] = (1-b.Momentum)*b.RunVar.Data[c] + b.Momentum*va
	}
}

// normalize is the one scale-shift behind training, the evaluation-mode
// Forward and the inference path, so the last two agree bit for bit: one
// tensor.NormAffine per (sample, channel) plane. Channel c takes its mean
// and 1/σ from stats[2c:], or with stats nil from the running estimates.
func (b *BatchNorm) normalize(dst, src, stats []float64, batch, aC, hw int, relu bool) {
	gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
	for c := 0; c < aC; c++ {
		var mu, is float64
		if stats != nil {
			mu, is = stats[2*c], stats[2*c+1]
		} else {
			mu, is = b.RunMean.Data[c], 1/math.Sqrt(b.RunVar.Data[c]+b.Eps)
		}
		for s := 0; s < batch; s++ {
			off := (s*aC + c) * hw
			tensor.NormAffine(dst[off:off+hw], src[off:off+hw], mu, is, gamma[c], beta[c], relu)
		}
	}
}

// Infer normalizes with the running estimates on the read-only inference
// path (evaluation semantics; no layer state is touched).
func (b *BatchNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return b.inferAct(ctx, x, false)
}

// inferAct is Infer with an optionally fused trailing ReLU (one write pass
// instead of a separate ReLU read+write sweep).
func (b *BatchNorm) inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	aC := b.Spec.Active(ctx.EffRate(), b.C)
	batch, hw := normShape("BatchNorm", x, aC)
	y := arenaOf(ctx).GetUninit(x.Shape...)
	b.normalize(y.Data, x.Data, nil, batch, aC, hw, relu)
	return y
}

// FoldedAffine returns the per-channel affine form of the evaluation-mode
// BatchNorm: y = scale[c]·x + shift[c] with scale[c] = γ[c]/√(σ²[c]+ε) and
// shift[c] = β[c] − scale[c]·μ[c]. This is what the inference-time fusion
// pass bakes into the preceding convolution's GEMM epilogue; it reads the
// running statistics at call time, so it must be recomputed if the layer is
// trained afterwards. Agreement with the unfused path is within rounding
// (≤1e-12 relative), not bit-exact, because the factored arithmetic rounds
// differently.
func (b *BatchNorm) FoldedAffine() (scale, shift []float64) {
	scale = make([]float64, b.C)
	shift = make([]float64, b.C)
	for c := 0; c < b.C; c++ {
		is := 1 / math.Sqrt(b.RunVar.Data[c]+b.Eps)
		s := b.Gamma.Value.Data[c] * is
		scale[c] = s
		shift[c] = b.Beta.Value.Data[c] - s*b.RunMean.Data[c]
	}
	return scale, shift
}

// Backward accumulates dGamma, dBeta, returns dx and drops the cached input
// and statistics. Per channel, tensor.NormGradSums over each sample's plane
// gives that plane's Σ dy and Σ dy·x̂, the channel's shares of dβ and dγ;
// tensor.NormGrad then writes each plane's dx.
func (b *BatchNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if b.x == nil || len(dy.Data) != len(b.x.Data) {
		panic(fmt.Sprintf("nn: BatchNorm.Backward grad %v without a matching Forward", dy.Shape))
	}
	x, hw, batch := b.x.Data, b.hw, b.x.Dim(0)
	n := float64(batch * hw)
	dx := arenaOf(ctx).GetUninit(b.x.Shape...)
	gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
	for c := 0; c < b.aC; c++ {
		mu, is := b.stats[2*c], b.stats[2*c+1]
		sumG, sumGH := 0.0, 0.0
		for s := 0; s < batch; s++ {
			off := (s*b.aC + c) * hw
			g, gh := tensor.NormGradSums(dy.Data[off:off+hw], x[off:off+hw], mu, is, gamma[c], beta[c], false)
			sumG += g
			sumGH += gh
		}
		b.Gamma.Grad().Data[c] += sumGH
		b.Beta.Grad().Data[c] += sumG
		mDxhat, mDxhatXhat := gamma[c]*sumG/n, gamma[c]*sumGH/n
		for s := 0; s < batch; s++ {
			off := (s*b.aC + c) * hw
			tensor.NormGrad(dx.Data[off:off+hw], dy.Data[off:off+hw], x[off:off+hw], mu, is, gamma[c], beta[c], mDxhat, mDxhatXhat, false)
		}
	}
	b.x, b.stats = nil, nil
	return dx
}

// Params returns γ and β.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// SwitchableBatchNorm keeps an independent BatchNorm per scheduled width —
// the SlimmableNet (Yu et al., 2018) solution to output-scale instability
// that the paper compares against in Table 1. Context.WidthIdx selects which
// set of statistics and affine parameters is used for the current pass.
type SwitchableBatchNorm struct {
	BNs []*BatchNorm
	cur int
}

// NewSwitchableBatchNorm builds one BatchNorm per width in the rate list.
func NewSwitchableBatchNorm(c int, spec SliceSpec, widths int) *SwitchableBatchNorm {
	s := &SwitchableBatchNorm{}
	for i := 0; i < widths; i++ {
		s.BNs = append(s.BNs, NewBatchNorm(c, spec))
	}
	return s
}

// index returns ctx.WidthIdx (0 without a context), the BatchNorm a pass
// uses, and panics when it names none.
func (s *SwitchableBatchNorm) index(ctx *Context) int {
	idx := 0
	if ctx != nil {
		idx = ctx.WidthIdx
	}
	if idx < 0 || idx >= len(s.BNs) {
		panic(fmt.Sprintf("nn: SwitchableBatchNorm width index %d out of range [0,%d)", idx, len(s.BNs)))
	}
	return idx
}

// Forward dispatches to the BatchNorm selected by ctx.WidthIdx.
func (s *SwitchableBatchNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	s.cur = s.index(ctx)
	return s.BNs[s.cur].Forward(ctx, x)
}

// Backward dispatches to the BatchNorm used in the preceding Forward.
func (s *SwitchableBatchNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return s.BNs[s.cur].Backward(ctx, dy)
}

// Infer dispatches to the BatchNorm selected by ctx.WidthIdx without
// recording the selection (read-only inference path).
func (s *SwitchableBatchNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return s.inferAct(ctx, x, false)
}

// inferAct is Infer with an optionally fused trailing ReLU.
func (s *SwitchableBatchNorm) inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	return s.BNs[s.index(ctx)].inferAct(ctx, x, relu)
}

// Params returns the parameters of every per-width BatchNorm.
func (s *SwitchableBatchNorm) Params() []*Param {
	var ps []*Param
	for _, b := range s.BNs {
		ps = append(ps, b.Params()...)
	}
	return ps
}
