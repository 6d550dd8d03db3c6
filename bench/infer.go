package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"modelslicing/internal/cost"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// The fixed set-up: no knobs. Rates are the paper's 1/4 granularity.
var (
	rates    = slicing.NewRateList(0.25, 4)
	vggShape = []int{3, 16, 16}
	mlpShape = []int{64}
)

const (
	inferBatch = 8
	// checkTol bounds the difference between two paths that compute the same
	// function in the same precision.
	checkTol = 1e-9
)

func newVGG(seed int64) *nn.Sequential {
	m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rand.New(rand.NewSource(seed)))
	return m
}

func newMLP(seed int64) *nn.Sequential {
	return models.NewMLP(mlpShape[0], []int{64, 64}, 8, 4, rand.New(rand.NewSource(seed)))
}

// randomTensors makes n standard-normal tensors of the given shape.
func randomTensors(rng *rand.Rand, n int, shape ...int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(shape...)
		for j := range out[i].Data {
			out[i].Data[j] = rng.NormFloat64()
		}
	}
	return out
}

// maxAbsDiff is the largest element-wise difference, +Inf on a length
// mismatch or a non-finite value.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		x := math.Abs(a[i] - b[i])
		if math.IsNaN(x) || math.IsInf(a[i], 0) {
			return math.Inf(1)
		}
		d = max(d, x)
	}
	return d
}

// directSliceEff times Shared.Infer on a batch of 8 samples of the given
// shape with r=0.25 and r=1 back to back and returns the median of the pairs'
// ratios: the two calls of a pair see the same machine, so drift cancels.
func directSliceEff(s *slicing.Shared, shape []int, arena *tensor.Arena) float64 {
	const rounds = 100
	x := randomTensors(rand.New(rand.NewSource(1)), 1, append([]int{inferBatch}, shape...)...)[0]
	var eff []float64
	for i := 0; i < rounds+2; i++ {
		t0 := time.Now()
		s.Infer(rates.Min(), x, arena)
		t1 := time.Now()
		arena.Reset()
		s.Infer(1, x, arena)
		t2 := time.Now()
		arena.Reset()
		if i >= 2 { // the first rounds build packs and grow the arena
			eff = append(eff, ratio(float64(t1.Sub(t0)), float64(t2.Sub(t1))))
		}
	}
	return quantile(eff, 0.5)
}

// layerKind names the layer a fused-view element belongs to in the metrics:
// conv, norm, pool or dense.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D, *nn.FusedConvAct:
		return "conv"
	case *nn.GroupNorm, *nn.BatchNorm, *nn.SwitchableBatchNorm, *nn.FusedNormAct:
		return "norm"
	case *nn.MaxPool2D, *nn.GlobalAvgPool:
		return "pool"
	case *nn.Dense, *nn.FusedDenseAct:
		return "dense"
	}
	return "other"
}

var layerKinds = []string{"conv", "norm", "pool", "dense"}

// inferInst is infer_vgg: one goroutine calling Shared.Infer on the vgg model
// at batch 8, the four rates interleaved in one loop so that machine drift
// hits every rate equally and the r=0.25 / r=1 ratio stays stable.
type inferInst struct {
	model  *nn.Sequential
	shared *slicing.Shared
	// fused is the view Shared.Infer runs, walked layer by layer when traced.
	fused []nn.Layer
	// kinds and names label each fused layer's span, built once so the
	// traced walk formats nothing between layers.
	kinds, names []string
	arena        *tensor.Arena
	inputs       []*tensor.Tensor
	// sampled outputs, checked against the unfused path after the run.
	samples []inferSample
	eff     float64
}

type inferSample struct {
	input int
	rate  float64
	out   []float64
}

func bootInfer(e env) (instance, error) {
	in := &inferInst{model: newVGG(e.seed), arena: tensor.NewArena()}
	in.shared = slicing.NewShared(in.model, rates)
	seq, ok := nn.Fuse(in.model).(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("fused vgg is %T, not a Sequential", nn.Fuse(in.model))
	}
	in.fused = seq.Layers
	for i, l := range in.fused {
		in.kinds = append(in.kinds, layerKind(l))
		in.names = append(in.names, fmt.Sprintf("nn.%s[%d]", in.kinds[i], i))
	}
	in.inputs = randomTensors(rand.New(rand.NewSource(e.seed+1)), 16, append([]int{inferBatch}, vggShape...)...)
	for _, r := range rates {
		in.shared.Infer(r, in.inputs[0], in.arena)
		in.arena.Reset()
	}
	return in, nil
}

func (in *inferInst) close() {}

func (in *inferInst) sliceEff() float64 { return in.eff }

func (in *inferInst) run(d time.Duration, tr *tracer) *segment {
	seg := newSegment(inferBatch)
	perRate := make([][]float64, len(rates)) // µs per sample
	kindNs := make([]map[string]int64, len(rates))
	for i := range kindNs {
		kindNs[i] = map[string]int64{}
	}
	var walkNs int64
	ctx := &nn.Context{Arena: in.arena, Tier: in.shared.Tier()}
	n0, b0 := mallocs()
	cpu0, start := cpuTime(), time.Now()
	for round := 0; time.Since(start) < d; round++ {
		xi := round % len(in.inputs)
		for ri, r := range rates {
			var y *tensor.Tensor
			t0 := time.Now()
			if tr == nil {
				y = in.shared.Infer(r, in.inputs[xi], in.arena)
			} else {
				// The traced pass runs the same fused layers one by one.
				op := int64(round*len(rates) + ri)
				ctx.Rate, ctx.WidthIdx = r, ri
				y = in.inputs[xi]
				root := tr.add("slicing.infer", op, -1, tr.at(t0), 0)
				for li, l := range in.fused {
					l0 := time.Now()
					y = nn.Infer(l, ctx, y)
					l1 := time.Now()
					kindNs[ri][in.kinds[li]] += int64(l1.Sub(l0))
					walkNs += int64(l1.Sub(l0))
					tr.add(in.names[li], op, root, tr.at(l0), tr.at(l1))
				}
				tr.end(root, tr.at(time.Now()))
			}
			dt := time.Since(t0)
			perRate[ri] = append(perRate[ri], us(dt)/inferBatch)
			if r == 1 {
				seg.latMs = append(seg.latMs, ms(dt))
			}
			if round%32 == 0 {
				in.samples = append(in.samples, inferSample{xi, r, append([]float64(nil), y.Data...)})
			}
			in.arena.Reset()
			seg.attempted++
			seg.rateSum += r
		}
	}
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	n1, b1 := mallocs()
	seg.mallocs, seg.allocBytes = n1-n0, b1-b0
	seg.answered, seg.ok = seg.attempted, seg.attempted

	if tr == nil {
		// The median of the rounds' own ratios: both calls of a round see
		// the same machine, so drift cancels.
		eff := make([]float64, len(perRate[len(rates)-1]))
		for i := range eff {
			eff[i] = ratio(perRate[0][i], perRate[len(rates)-1][i])
		}
		in.eff = quantile(eff, 0.5)
		seg.layer["slicing.infer_us_r025_p50"] = quantile(perRate[0], 0.5)
		seg.layer["slicing.infer_us_r100_p50"] = quantile(perRate[len(rates)-1], 0.5)
		return seg
	}
	in.layerMetrics(seg, perRate, kindNs, walkNs)
	return seg
}

// layerMetrics fills the tensor., nn. and slicing. numbers after a traced
// stretch: layer times from the walk, kernel counts and allocations from
// single untraced passes made here, outside the timed loop.
func (in *inferInst) layerMetrics(seg *segment, perRate [][]float64, kindNs []map[string]int64, walkNs int64) {
	m := seg.layer
	x := in.inputs[0]
	tier := in.shared.Tier()
	for _, ri := range []int{0, len(rates) - 1} {
		r := rates[ri]
		tag := rateTag(r)
		passes := float64(len(perRate[ri]))
		total := 0.0
		for _, k := range layerKinds {
			total += float64(kindNs[ri][k])
		}
		for _, k := range layerKinds {
			m["nn."+k+"_us_"+tag] = ratio(float64(kindNs[ri][k])/1e3, passes*inferBatch)
		}
		m["nn.conv_share_"+tag] = ratio(float64(kindNs[ri]["conv"]), total)
		m["nn.norm_share_"+tag] = ratio(float64(kindNs[ri]["norm"]), total)
		// MACs of the conv layers alone, from the cost model, over the time
		// the conv layers took: achieved GFLOPS of the layer that should
		// scale with r².
		shape, convMACs := vggShape, int64(0)
		for _, l := range in.model.Layers {
			p, out := cost.Measure(l, shape, r)
			if _, ok := l.(*nn.Conv2D); ok {
				convMACs += p.MACs
			}
			shape = out
		}
		m["nn.conv_gflops_"+tag] = ratio(2*float64(convMACs)*inferBatch*passes, float64(kindNs[ri]["conv"]))

		// One untraced pass between two reads of the process-wide counters:
		// the loop is single-threaded, so the delta is this pass's.
		before := tensor.GemmStats()
		in.shared.Infer(r, x, in.arena)
		in.arena.Reset()
		after := tensor.GemmStats()
		vec := float64(after.Kernels[tier].Vector - before.Kernels[tier].Vector)
		sca := float64(after.Kernels[tier].Scalar - before.Kernels[tier].Scalar)
		m["tensor.kernel_vector_per_pass_"+tag] = vec
		m["tensor.kernel_scalar_per_pass_"+tag] = sca
		if ri == 0 {
			m["tensor.scalar_share_r025"] = ratio(sca, vec+sca)
		} else {
			m["tensor.fanouts_per_pass_r100"] = float64(after.Fanouts - before.Fanouts)
		}
	}
	m["nn.norm_eff_r025"] = ratio(m["nn.norm_us_r025"], m["nn.norm_us_r100"])

	// The untraced reference for the walk: Shared.Infer over the same rates.
	const passes = 20
	n0, _ := mallocs()
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		for _, r := range rates {
			in.shared.Infer(r, x, in.arena)
			in.arena.Reset()
		}
	}
	untracedNs := float64(time.Since(t0)) / passes
	n1, _ := mallocs()
	m["slicing.allocs_per_infer"] = float64(n1-n0) / (passes * float64(len(rates)))
	rounds := float64(len(perRate[0]))
	m["slicing.walk_over_infer"] = ratio(float64(walkNs)/rounds, untracedNs)
	m["slicing.pack_cache_bytes"] = float64(in.shared.PackCacheBytes())
	m["slicing.arena_high_water_bytes"] = float64(in.arena.HighWaterBytes())
}

// check compares the sampled fused-path outputs with the unfused oracle.
func (in *inferInst) check() (checked, bad int) {
	for _, s := range in.samples {
		want := in.shared.InferUnfused(s.rate, in.inputs[s.input], in.arena)
		if maxAbsDiff(s.out, want.Data) > checkTol {
			bad++
		}
		in.arena.Reset()
		checked++
	}
	in.samples = in.samples[:0]
	return checked, bad
}
