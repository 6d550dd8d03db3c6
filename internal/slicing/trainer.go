package slicing

import (
	"fmt"
	"math/rand"
	"sync"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// Trainer runs Algorithm 1 of the paper: per batch it draws the slice-rate
// list Lt from the scheduling scheme, forwards and backwards the
// corresponding sub-networks on the shared parameters, accumulates their
// gradients, and applies a single optimizer update.
type Trainer struct {
	// Model is the network trained. Its parameter list and fused view are
	// built once, so a different model needs a new Trainer.
	Model nn.Layer
	Rates RateList
	Sched Scheduler
	Opt   *train.SGD
	// ClipNorm, when positive, clips the global gradient norm before the
	// update (used by the NNLM recipe).
	ClipNorm float64
	RNG      *rand.Rand

	// params caches Model.Params(): composite layers build the list afresh
	// on every call.
	params []*nn.Param
	// net is nn.Fuse(Model), built once and stepped in Model's place: it
	// shares Model's parameters, and each same Conv→GroupNorm→ReLU in it
	// trains as one pass, bit-identical to the unfused chain.
	net nn.Layer
}

// stepArenas recycles the arena a step runs its sub-networks on. A Trainer
// does not hold one between steps: the slab is sized by the full-width
// sub-network (~27 MB for VGG13Mini at batch 32), and pooled it is garbage
// at the next collection after the step, like the heap tensors it replaces.
var stepArenas = sync.Pool{New: func() any { return tensor.NewArena() }}

// NewTrainer constructs a trainer; the rate list is validated once here.
func NewTrainer(model nn.Layer, rates RateList, sched Scheduler, opt *train.SGD, rng *rand.Rand) *Trainer {
	rates.Validate()
	// Copy-on-train: a model bound over a read-only checkpoint mapping
	// (persist.Checkpoint.Bind) must own its parameters before the first
	// optimizer update — or BatchNorm running-stat write — touches them.
	params := model.Params()
	for _, p := range params {
		p.EnsureMutable()
	}
	return &Trainer{Model: model, Rates: rates, Sched: sched, Opt: opt, RNG: rng, params: params, net: nn.Fuse(model)}
}

// StepStats reports the losses of one Algorithm-1 step.
type StepStats struct {
	// Rates holds the scheduled list Lt in training order.
	Rates []float64
	// Losses holds the sub-network loss for each scheduled rate.
	Losses []float64
}

// MeanLoss returns the mean loss across the scheduled sub-networks.
func (s StepStats) MeanLoss() float64 {
	if len(s.Losses) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range s.Losses {
		sum += l
	}
	return sum / float64(len(s.Losses))
}

// Step performs one training step on the batch. Each scheduled sub-network
// runs on a pooled arena that is reset after its Backward: the layers drop
// their arena-backed caches there, so nothing of a pass outlives it.
func (t *Trainer) Step(b train.Batch) StepStats {
	lt := t.Sched.Next(t.RNG)
	if len(lt) == 0 {
		panic("slicing: scheduler returned an empty rate list")
	}
	stats := StepStats{Rates: lt}
	arena := stepArenas.Get().(*tensor.Arena)
	for _, r := range lt {
		ctx := &nn.Context{Training: true, Rate: r, WidthIdx: t.Rates.WidthIdx(r), RNG: t.RNG, Arena: arena}
		logits := t.net.Forward(ctx, b.X)
		loss, dy := nn.SoftmaxCrossEntropy(logits, b.Labels)
		t.net.Backward(ctx, dy)
		arena.Reset()
		stats.Losses = append(stats.Losses, loss)
	}
	if t.params == nil {
		t.params = t.Model.Params()
	}
	params := t.params
	// Algorithm 1 accumulates sub-network gradients; we normalize the sum by
	// |Lt| (equivalently, optimize the mean of the sub-network losses) so
	// the effective step size does not grow with the number of scheduled
	// subnets and one learning rate works across scheduling schemes.
	if n := len(lt); n > 1 {
		inv := 1 / float64(n)
		for _, p := range params {
			p.Grad().Scale(inv)
		}
	}
	if t.ClipNorm > 0 {
		train.ClipGradNorm(params, t.ClipNorm)
	}
	t.Opt.Step(params)
	stepArenas.Put(arena)
	return stats
}

// Epoch runs one pass over the batches and returns the mean step loss.
func (t *Trainer) Epoch(batches []train.Batch) float64 {
	if len(batches) == 0 {
		return 0
	}
	total := 0.0
	for _, b := range batches {
		total += t.Step(b).MeanLoss()
	}
	return total / float64(len(batches))
}

// Predict runs an inference pass at the member of rates nearest r and
// returns the logits in heap storage.
func Predict(model nn.Layer, rates RateList, r float64, x *tensor.Tensor) *tensor.Tensor {
	r = rates.Nearest(r)
	return model.Infer(&nn.Context{Rate: r, WidthIdx: rates.WidthIdx(r)}, x)
}

// EvaluateAll evaluates the model at every rate in the list and returns the
// results in rate order — one row of Tables 2 and 4.
func EvaluateAll(model nn.Layer, rates RateList, batches []train.Batch) []train.EvalResult {
	out := make([]train.EvalResult, len(rates))
	for i, r := range rates {
		out[i] = train.Evaluate(model, r, i, batches)
	}
	return out
}

// String renders a rate list compactly for reports.
func (l RateList) String() string {
	s := "["
	for i, r := range l {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", r)
	}
	return s + "]"
}
