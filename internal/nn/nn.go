// Package nn implements a slicing-aware neural-network layer framework with
// manual back-propagation, built on internal/tensor.
//
// Every width-bearing layer (Dense, Conv2D, GroupNorm, BatchNorm, RNN, GRU,
// LSTM) supports *prefix slicing* per the model-slicing paper (Cai et al.,
// VLDB 2019): the layer's components (neurons, channels, hidden units) are
// divided into ordered groups, and a slice rate r ∈ (0,1] carried by Context
// selects the leading ⌈r·G⌉ groups for both the forward and backward pass.
// Tensors flow between layers at their *active* width, so a sliced forward
// pass touches only the activated prefix of each weight buffer — matching the
// paper's claim that sub-networks need only the sliced parameters in memory.
//
// Forward trains: it caches backward state in the layer, so a model in
// training belongs to one goroutine. Infer serves and evaluates: it writes
// nothing to the layer, so one model serves any number of goroutines.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"modelslicing/internal/tensor"
)

// Context carries per-pass state through Forward and Backward calls.
type Context struct {
	// Training selects training behaviour (dropout active, batch-norm batch
	// statistics, caches retained for Backward).
	Training bool
	// Rate is the slice rate r ∈ (0,1]. Zero is treated as 1 (full width).
	Rate float64
	// WidthIdx identifies the scheduled width for layers that keep
	// per-width state (SwitchableBatchNorm in the SlimmableNet baseline).
	// It indexes the slice-rate list used during training.
	WidthIdx int
	// RNG drives stochastic layers (dropout). May be nil outside training.
	RNG *rand.Rand
	// Arena, when non-nil, supplies output and scratch buffers: activations
	// come from the reusable slabs instead of the heap.
	//
	// On the inference path (Layer.Infer) the outermost Sequential of a
	// pass releases each layer's activations once the layer after it has
	// run, and a trunk chunk's once its output rows are copied out, so an
	// intermediate is valid only until that loop moves on; the
	// pass's returned output, and whatever was taken from the arena before
	// the pass, stay valid until the caller's Arena.Reset. A layer's output
	// is either new arena (or heap) storage or a view of its input's storage
	// from its first element (Flatten, eval Dropout).
	//
	// In training, Forward and Backward take their outputs, gradients and
	// cached state from it without releasing anything, so all of a
	// sub-network's pass stays valid until the caller resets the arena after
	// Backward (slicing.Trainer.Step). Backward drops every cache that points
	// into the arena, so a model pins none of it afterwards. The recurrent
	// layers and Embedding allocate from the heap either way.
	Arena *tensor.Arena
	// Tier selects the GEMM engine tier of the inference path's weight
	// products (Layer.Infer and the fused serving views): tensor.TierExact
	// (zero value) keeps the bit-exact engine, TierFMA trades a pinned
	// accuracy budget for throughput (see tensor/tier.go). It picks only the
	// micro-kernel: every conv shape has one lowering on both tiers, and the
	// fma tier's shifted-row grid is rounded to its 8-column kernel
	// (tensor.EngineTier.ColBlock). Training runs exact.
	Tier tensor.EngineTier

	// inPass is set while the outermost Sequential.Infer of an arena-backed
	// pass runs; nested Sequentials (Residual bodies) see it and keep plain
	// bump allocation, so each outermost layer allocates from one half and
	// a block's input outlives its body. held is when that pass last took
	// the P (yield).
	inPass bool
	held   time.Time
}

// yield hands the P back to the Go scheduler once an arena-backed pass has
// held it for yieldAfter. Sequential.Infer calls it between steps and
// trunk chunks, and inferShift between sample groups, so a multi-layer run
// yields as often as single layers do.
func (c *Context) yield() {
	if c != nil && c.inPass && time.Since(c.held) >= yieldAfter {
		runtime.Gosched()
		c.held = time.Now()
	}
}

// EffTier returns the engine tier, nil-safe (nil context means exact).
func (c *Context) EffTier() tensor.EngineTier {
	if c == nil {
		return tensor.TierExact
	}
	return c.Tier
}

// EffRate returns the effective slice rate (0 mapped to 1).
func (c *Context) EffRate() float64 {
	if c == nil || c.Rate <= 0 {
		return 1
	}
	if c.Rate > 1 {
		return 1
	}
	return c.Rate
}

// Eval returns a fresh evaluation context at slice rate r.
func Eval(r float64) *Context { return &Context{Training: false, Rate: r} }

// Train returns a fresh training context at slice rate r using rng.
func Train(r float64, rng *rand.Rand) *Context {
	return &Context{Training: true, Rate: r, RNG: rng}
}

// Param is a learnable parameter with its gradient accumulator.
type Param struct {
	// Name identifies the parameter for checkpoints and debugging.
	Name string
	// Value holds the parameter itself.
	Value *tensor.Tensor
	// Decay marks the parameter as subject to weight decay (weights yes,
	// biases and normalization affine parameters no, per convention).
	Decay bool
	// Foreign marks Value as a zero-copy view over memory the parameter does
	// not own — typically a read-only mmap of a checkpoint section
	// (persist.Checkpoint.Bind). Writing through a foreign Value faults, so
	// every mutating path must call EnsureMutable first. Inference never
	// writes parameters and serves foreign values directly.
	Foreign bool

	// grad is the gradient accumulator, nil until Grad first runs.
	grad *tensor.Tensor
}

// NewParam allocates a parameter of the given shape. Its gradient is
// allocated by the first Grad call, so a served or checkpoint-bound model
// holds none.
func NewParam(name string, decay bool, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Decay: decay}
}

// Grad returns the gradient accumulator, shaped like Value, allocating it
// zeroed on first use. Layer backwards accumulate into it; optimizers zero
// it after each step. Every reader and writer goes through Grad, so an
// optimizer sees the same zero buffer a parameter no backward reached would
// have had from construction.
func (p *Param) Grad() *tensor.Tensor {
	if p.grad == nil {
		p.grad = tensor.New(p.Value.Shape...)
	}
	return p.grad
}

// ZeroGrad clears the accumulated gradient. One never allocated is left
// unallocated: it reads as zero when Grad allocates it.
func (p *Param) ZeroGrad() {
	if p.grad != nil {
		p.grad.Zero()
	}
}

// EnsureMutable detaches a foreign parameter from its backing mapping by
// cloning the value into owned memory (copy-on-train). It is a no-op for
// parameters that already own their storage, so callers may invoke it
// unconditionally before any write to Value.
func (p *Param) EnsureMutable() {
	if !p.Foreign {
		return
	}
	p.Value = p.Value.Clone()
	p.Foreign = false
}

// Layer is the unit of composition. Forward trains and Infer serves and
// evaluates (see infer.go). Backward must be called with the same Context
// (in particular the same slice rate) as the preceding Forward, and returns
// the gradient with respect to the layer input. Parameter gradients are
// accumulated into Params()[i].Grad() (not overwritten), which is what
// Algorithm 1's multi-subnet gradient accumulation requires.
type Layer interface {
	Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor
	Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// SliceSpec describes how one dimension of a layer participates in slicing.
type SliceSpec struct {
	// Groups is the number of contiguous groups the dimension is divided
	// into. The dimension extent must be divisible by Groups.
	Groups int
	// Slice enables slicing on this dimension. Input layers keep their
	// input full and output layers their output full (Section 5.1.1).
	Slice bool
}

// Fixed returns a spec for a dimension excluded from slicing.
func Fixed() SliceSpec { return SliceSpec{Groups: 1, Slice: false} }

// Sliced returns a spec dividing the dimension into g groups.
func Sliced(g int) SliceSpec { return SliceSpec{Groups: g, Slice: true} }

// Active returns the number of active units of a dimension of the given
// width at slice rate r: the leading ⌈r·G⌉ groups, always at least one group.
func (s SliceSpec) Active(r float64, width int) int {
	if !s.Slice || r >= 1 {
		return width
	}
	return ActiveUnits(r, width, s.Groups)
}

// Validate panics unless width is divisible by the group count.
func (s SliceSpec) Validate(name string, width int) {
	g := s.Groups
	if g <= 0 {
		panic(fmt.Sprintf("nn: %s: group count must be positive, got %d", name, g))
	}
	if width%g != 0 {
		panic(fmt.Sprintf("nn: %s: width %d not divisible by %d groups", name, width, g))
	}
}

// ActiveUnits computes the active prefix length of a width divided into
// groups at slice rate r. Rates are snapped to the nearest group boundary
// and clamped to [1, groups] groups.
func ActiveUnits(r float64, width, groups int) int {
	if groups <= 0 {
		groups = 1
	}
	g := int(math.Round(r * float64(groups)))
	if g < 1 {
		g = 1
	}
	if g > groups {
		g = groups
	}
	return g * (width / groups)
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer
	// runs marks the shifted-row runs of a Sequential built by Fuse
	// (shiftedRuns): runs[i] is the length of the run that starts at layer
	// i, 0 elsewhere. Nil otherwise.
	runs []int
	// trunk is the number of leading layers that Infer may serve a chunk of
	// samples at a time (trunkLen); 0 unless built by Fuse.
	trunk int
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(ctx, dy)
	}
	return dy
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// yieldAfter is how long an arena-backed pass holds its P before the next
// layer or sample-group boundary hands it back to the Go scheduler. A pass has no blocking
// call, so without the yield the load generator, HTTP intake and batcher
// sharing the cores wait for sysmon's preemption; a yield per layer instead
// would cost a quarter-width pass, whose layers run for ~10 µs.
const yieldAfter = time.Millisecond

// TrunkChunkBytes is the activation budget of one chunk of a served trunk
// (Sequential.Infer): a chunk holds as many samples as the trunk's largest
// per-sample activation at the pass's rate fits into it, and at least one.
// VGG13Mini's chunks are 8 samples at r = 1 and 32 at r = 0.25. Half the
// budget, chunks of 4, made its r = 1 pass 3 % slower: a chunk splits the
// sample groups of the 8×8 and 4×4 shifted-row runs.
const TrunkChunkBytes = 256 << 10

// Infer runs all layers in order on the read-only inference path.
//
// A fused Sequential serves each of its shifted-row runs (runs) as one
// step, on either tier: inferShift takes the run's layers a sample group at
// a time, each writing its output straight into the interior of the next
// conv's padded image, so no conv but the run's first pads its input. Every
// other layer is a step of its own; each layer's Infer, called alone, stays
// dense in and out.
//
// The outermost call with an arena keeps two steps' activations live, not
// all of them: it marks the arena on entry and, before each later step,
// flips to the other half and releases it to the mark, which frees the
// previous step's input and the scratch of the one before. A layer whose
// output views its input (Flatten, eval Dropout) flips back unreleased.
// Nothing below the mark — the caller's batch, an earlier pass's output — is
// released, and nested calls (Residual bodies) allocate plain bump. The same
// boundary yields the P once the pass has held it for yieldAfter
// (Context.yield).
//
// That call serves a fused Sequential's trunk (trunkLen) a chunk of samples
// at a time (TrunkChunkBytes), releasing the arena below each chunk's output
// rows once they are copied into the batch's trunk output (Arena.Release),
// and runs the layers after the trunk once on the whole batch. Every bit is
// the unchunked pass's; a Dense stays whole because the engine picks its
// kernel, and so its last bits, by the batch.
func (s *Sequential) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	runs := s.runs
	if len(runs) != len(s.Layers) {
		runs = nil
	}
	a := arenaOf(ctx)
	if a == nil || ctx.inPass {
		return s.steps(ctx, nil, runs, x, 0, len(s.Layers)) // no arena, or a nested call: plain bump
	}
	ctx.inPass, ctx.held = true, time.Now()
	defer func() { ctx.inPass = false }()
	from := 0
	if s.trunk > 0 && x.Rank() == 4 {
		x, from = s.inferTrunk(ctx, a, runs, x)
	}
	return s.steps(ctx, a, runs, x, from, len(s.Layers))
}

// inferTrunk serves the trunk of x's batch a chunk at a time and returns its
// output and the trunk's length, or x and 0 when one chunk holds the batch.
func (s *Sequential) inferTrunk(ctx *Context, a *tensor.Arena, runs []int, x *tensor.Tensor) (*tensor.Tensor, int) {
	r, batch := ctx.EffRate(), x.Dim(0)
	shape, act := [4]int{batch, x.Dim(1), x.Dim(2), x.Dim(3)}, 0
	for _, l := range s.Layers[:s.trunk] {
		shape[1], shape[2], shape[3], _ = sampleShape(l, r, shape[1], shape[2], shape[3])
		act = max(act, shape[1]*shape[2]*shape[3])
	}
	chunk := max(1, TrunkChunkBytes/max(1, 8*act))
	if chunk >= batch {
		return x, 0
	}
	rank := 4
	if _, gap := s.Layers[s.trunk-1].(*GlobalAvgPool); gap {
		rank = 2
	}
	out := a.GetUninit(shape[:rank]...)
	in, per := len(x.Data)/batch, len(out.Data)/batch
	m := a.Mark()
	for b0 := 0; b0 < batch; b0 += chunk {
		if b0 > 0 {
			ctx.yield()
		}
		n := min(chunk, batch-b0)
		xc := a.Wrap(x.Data[b0*in:(b0+n)*in], n, x.Dim(1), x.Dim(2), x.Dim(3))
		y := s.steps(ctx, a, runs, xc, 0, s.trunk)
		if len(y.Data) != n*per {
			panic(fmt.Sprintf("nn: trunk output %v, want %d elements a sample", y.Shape, per))
		}
		copy(out.Data[b0*per:], y.Data)
		a.Release(m)
	}
	return out, s.trunk
}

// steps runs layers [from, to) on x as Infer's steps, ping-ponging a's
// halves (a nil a allocates plain bump). No shifted-row run crosses the end
// of the trunk: a run's layers are all trunk layers.
func (s *Sequential) steps(ctx *Context, a *tensor.Arena, runs []int, x *tensor.Tensor, from, to int) *tensor.Tensor {
	m := a.Mark()
	for i := from; i < to; {
		if a != nil && i > from {
			a.Flip(m, true)
			ctx.yield()
		}
		var y *tensor.Tensor
		if runs != nil && runs[i] > 1 {
			n := runs[i]
			var stages [maxRun]shiftStage
			for t, l := range s.Layers[i : i+n] {
				stages[t] = l.(stager).stage(ctx)
			}
			y = inferShift(ctx, x, stages[:n])
			i += n
		} else {
			y = s.Layers[i].Infer(ctx, x)
			i++
		}
		if a != nil && sharesStorage(x.Data, y.Data) {
			a.Flip(m, false)
		}
		x = y
	}
	return x
}

// sharesStorage reports whether y is a view of x's storage. Fresh arena and
// heap buffers overlap no live tensor, so they never match.
func sharesStorage(x, y []float64) bool {
	return len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
}

// BackwardRange back-propagates dy through layers [from, to) in reverse.
func (s *Sequential) BackwardRange(ctx *Context, dy *tensor.Tensor, from, to int) *tensor.Tensor {
	for i := to - 1; i >= from; i-- {
		dy = s.Layers[i].Backward(ctx, dy)
	}
	return dy
}
