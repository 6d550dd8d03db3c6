// Package modelslicing is a from-scratch Go reproduction of "Model Slicing
// for Supporting Complex Analytics with Elastic Inference Cost and Resource
// Constraints" (Cai, Chen, Ooi, Gao — PVLDB 13(2), 2019).
//
// Model slicing trains a single neural network whose layers are divided into
// ordered groups of components; a scalar slice rate r ∈ (0,1] selects the
// leading groups of every layer at inference time, so one trained model
// serves predictions at many cost points — computation, memory and
// parameters all shrink ≈ quadratically with r (Equation 3 of the paper).
//
// This root package is the public facade over the internal engine:
//
//   - build slicing-ready models (MLP, VGG, ResNet, NNLM) or compose layers
//     from the nn building blocks,
//   - train them with Algorithm 1 via Trainer and a slice-rate Scheduler,
//   - serve at any rate with Predict, resolve budgets with BudgetRate,
//   - extract standalone deployable subnets with Extract,
//   - measure cost with MeasureCost.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package modelslicing

import (
	"math/rand"

	"modelslicing/internal/cost"
	"modelslicing/internal/fleet"
	"modelslicing/internal/nn"
	"modelslicing/internal/server"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// Re-exported core types. The aliases expose the internal engine's types
// directly so the facade adds no wrapping overhead.
type (
	// Tensor is a dense row-major float64 tensor.
	Tensor = tensor.Tensor
	// Layer is the unit of composition: Forward (with Backward) trains,
	// Infer serves and evaluates.
	Layer = nn.Layer
	// Context carries training mode and the slice rate through a pass.
	Context = nn.Context
	// Param is a learnable parameter with its gradient.
	Param = nn.Param
	// RateList is the ordered list of valid slice rates.
	RateList = slicing.RateList
	// Scheduler draws the slice-rate list Lt per training pass.
	Scheduler = slicing.Scheduler
	// Trainer runs the Algorithm-1 training loop.
	Trainer = slicing.Trainer
	// SGD is stochastic gradient descent with momentum and weight decay.
	SGD = train.SGD
	// Batch is one supervised mini-batch.
	Batch = train.Batch
	// EvalResult aggregates evaluation over a dataset.
	EvalResult = train.EvalResult
)

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// NewRateList builds slice rates from lb to 1.0 in steps of 1/granularity.
func NewRateList(lb float64, granularity int) RateList {
	return slicing.NewRateList(lb, granularity)
}

// NewTrainer constructs an Algorithm-1 trainer.
func NewTrainer(model Layer, rates RateList, sched Scheduler, opt *SGD, rng *rand.Rand) *Trainer {
	return slicing.NewTrainer(model, rates, sched, opt, rng)
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return train.NewSGD(lr, momentum, weightDecay)
}

// Scheduling schemes of Section 3.4.
var (
	// NewRandomUniform samples k rates uniformly per pass.
	NewRandomUniform = slicing.NewRandomUniform
	// NewRandomWeighted samples k rates from explicit importance weights.
	NewRandomWeighted = slicing.NewRandomWeighted
	// NewRMinMax pins the base and full network and samples one more rate —
	// the scheme the paper recommends for larger datasets.
	NewRMinMax = slicing.NewRMinMax
	// NewRMin pins the base network only.
	NewRMin = slicing.NewRMin
	// NewRMax pins the full network only.
	NewRMax = slicing.NewRMax
)

// StaticSchedule trains every rate each pass (SlimmableNet-style).
func StaticSchedule(rates RateList) Scheduler { return slicing.Static{Rates: rates} }

// FixedSchedule always trains the single given rate (conventional training).
func FixedSchedule(rate float64) Scheduler { return slicing.Fixed{Rate: rate} }

// Predict runs an inference pass at the member of rates nearest r.
func Predict(model Layer, rates RateList, r float64, x *Tensor) *Tensor {
	return slicing.Predict(model, rates, r, x)
}

// Evaluate computes loss and accuracy over batches at the member of rates
// nearest r.
func Evaluate(model Layer, rates RateList, r float64, batches []Batch) EvalResult {
	r = rates.Nearest(r)
	return train.Evaluate(model, r, rates.WidthIdx(r), batches)
}

// Extract builds a standalone copy of the subnet at rate r whose parameter
// and memory footprint is that of the small model (Section 3.1 deployment).
func Extract(model Layer, r float64, rates RateList) Layer {
	return slicing.Extract(model, r, rates)
}

// Zero-copy inference engine. Shared serves every slice rate in place from
// one read-only parent weight set (no Extract copies), and Arena recycles
// activation buffers so steady-state inference performs no heap allocation.
type (
	// Shared is the zero-copy multi-rate serving handle; safe for
	// concurrent use with per-goroutine arenas.
	Shared = slicing.Shared
	// Arena is a reusable activation-buffer arena for one goroutine.
	Arena = tensor.Arena
)

// NewShared wraps a trained model for zero-copy multi-rate inference.
func NewShared(model Layer, rates RateList) *Shared {
	return slicing.NewShared(model, rates)
}

// NewArena returns an empty activation arena; it grows to the high-water
// mark of the first inference pass and is then reused via Reset.
func NewArena() *Arena { return tensor.NewArena() }

// EngineTier selects the GEMM engine's speed/accuracy trade-off for a
// Shared (Shared.SetTier): TierExact is bit-exact, TierFMA contracts
// multiply-adds (≤1e-9 relative vs exact). See DESIGN.md §12.
type EngineTier = tensor.EngineTier

// The engine tiers, in ascending speed / descending accuracy order.
const (
	TierExact = tensor.TierExact
	TierFMA   = tensor.TierFMA
)

// ParseTier maps "exact" or "fma" to its EngineTier.
func ParseTier(s string) (EngineTier, error) { return tensor.ParseTier(s) }

// MeasureSampleTimes calibrates per-sample inference seconds t(r) at every
// rate by timing the zero-copy path, for use as Policy.SampleTime.
func MeasureSampleTimes(model Layer, rates RateList, inShape []int, batch int) func(r float64) float64 {
	return serving.MeasureSampleTimes(model, rates, inShape, batch)
}

// CostProfile reports multiply-accumulates, resident parameters and
// activation volume of one forward pass.
type CostProfile = cost.Profile

// MeasureCost profiles one forward pass at slice rate r for a single-sample
// input shape (e.g. [3, 32, 32] for images, [T] for token sequences).
func MeasureCost(model Layer, inShape []int, r float64) CostProfile {
	p, _ := cost.Measure(model, inShape, r)
	return p
}

// BudgetRate resolves a runtime computation budget to the largest slice
// rate whose cost fits (Equation 3): r ≤ min(√(Ct/C0), 1), snapped to the
// rate list.
func BudgetRate(rates RateList, budgetMACs, fullMACs float64) float64 {
	return rates.BudgetRate(budgetMACs, fullMACs)
}

// Live serving (Section 4.1). Policy is the Equation-3 scheduling decision
// shared by the clock-free simulation and the concurrent server, so the two
// paths cannot drift; Server batches real queries every T/2 and serves each
// batch at the largest rate the policy admits — budgeted against the
// window's remaining deadline slack under calibrated timings, so backlog
// degrades rates visibly instead of cascading into silent SLO misses.
type (
	// Policy picks the largest slice rate serving n queries within the
	// window's remaining budget (Choose for a fresh T/2, ChooseSlack for
	// the backlog-aware remainder).
	Policy = serving.Policy
	// Server is the live SLO-aware batching inference server.
	Server = server.Server
	// ServerConfig parameterizes a live server.
	ServerConfig = server.Config
	// ServerResult is the answer to one served query.
	ServerResult = server.Result
	// ServerStats snapshots a live server's counters.
	ServerStats = server.Stats
)

// NewPolicy builds the Equation-3 policy with the idealized quadratic cost
// curve t(r) = fullSampleTime·r².
func NewPolicy(rates RateList, latencySLO, fullSampleTime float64) Policy {
	return serving.NewPolicy(rates, latencySLO, fullSampleTime)
}

// NewServer starts a live server over a trained model; release it with
// (*Server).Stop. See internal/server for the engine's architecture.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Fleet serving: a coordinator routes queries over N replica servers with
// the same Equation-3 arithmetic the single node uses — each query to the
// replica whose backlog admits its window at the highest rate — with
// health-checked ejection/rejoin, retry on a different replica, and
// straggler hedging. See internal/fleet and DESIGN.md §14.
type (
	// Coordinator fronts a fleet of replica servers.
	Coordinator = fleet.Coordinator
	// CoordinatorConfig parameterizes a fleet coordinator.
	CoordinatorConfig = fleet.Config
)

// NewCoordinator starts a fleet coordinator; add members with
// (*Coordinator).AddReplica and release it with (*Coordinator).Stop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return fleet.New(cfg) }
