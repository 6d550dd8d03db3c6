package main

import (
	"math"
	"math/rand"
	"time"

	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

const trainBatch = 32

// trainInst is train_vgg: Algorithm-1 steps (R-min-max scheduling, SGD) on
// one fixed batch of 32. It uses the engine inference uses, differently:
// Forward and Backward through the unpacked GemmTA/GemmTB, with every pack
// invalidated each step.
type trainInst struct {
	tr    *slicing.Trainer
	batch train.Batch
	// lossFirst is the full-width loss of the first step ever taken,
	// lossLast that of the latest; a non-finite loss anywhere sets diverged.
	lossFirst, lossLast float64
	diverged            bool
	steps               int
}

func bootTrain(e env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed + 1))
	in := &trainInst{}
	in.batch.X = randomTensors(rng, 1, append([]int{trainBatch}, vggShape...)...)[0]
	in.batch.Labels = make([]int, trainBatch)
	for i := range in.batch.Labels {
		in.batch.Labels[i] = rng.Intn(10)
	}
	in.tr = slicing.NewTrainer(newVGG(e.seed), rates, slicing.NewRMinMax(rates),
		train.NewSGD(0.01, 0.9, 0), rand.New(rand.NewSource(e.seed+2)))
	in.step()
	return in, nil
}

// step takes one training step and returns the mean scheduled rate.
func (in *trainInst) step() float64 {
	st := in.tr.Step(in.batch)
	rateSum := 0.0
	for i, r := range st.Rates {
		rateSum += r
		if math.IsNaN(st.Losses[i]) || math.IsInf(st.Losses[i], 0) {
			in.diverged = true
		}
		if r == 1 {
			in.lossLast = st.Losses[i]
			if in.steps == 0 {
				in.lossFirst = st.Losses[i]
			}
		}
	}
	in.steps++
	return rateSum / float64(len(st.Rates))
}

func (in *trainInst) close() {}

func (in *trainInst) run(d time.Duration, tr *tracer) *segment {
	seg := newSegment(trainBatch)
	tier := tensor.TierExact // training always runs the exact engine
	n0, b0 := mallocs()
	k0 := tensor.GemmStats().Kernels[tier]
	cpu0, start := cpuTime(), time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		seg.rateSum += in.step()
		t1 := time.Now()
		seg.latMs = append(seg.latMs, ms(t1.Sub(t0)))
		seg.attempted++
		if tr != nil {
			tr.add("train.step", seg.attempted, -1, tr.at(t0), tr.at(t1))
		}
	}
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	n1, b1 := mallocs()
	seg.mallocs, seg.allocBytes = n1-n0, b1-b0
	seg.answered, seg.ok = seg.attempted, seg.attempted
	steps := float64(seg.attempted)
	if tr == nil {
		seg.layer["train.step_ms_p50"] = quantile(append([]float64(nil), seg.latMs...), 0.5)
		return seg
	}
	k1 := tensor.GemmStats().Kernels[tier]
	seg.layer["tensor.train_kernel_calls_per_step"] = float64(k1.Vector+k1.Scalar-k0.Vector-k0.Scalar) / steps
	seg.layer["train.allocs_per_step"] = float64(seg.mallocs) / steps
	seg.layer["train.alloc_bytes_per_step"] = float64(seg.allocBytes) / steps
	seg.layer["train.loss_first"] = in.lossFirst
	seg.layer["train.loss_last"] = in.lossLast
	return seg
}

// sliceEff is the training cost of the r=0.25 sub-network over that of the
// full one: steps with the scheduler pinned to one rate, interleaved.
func (in *trainInst) sliceEff() float64 {
	sched := in.tr.Sched
	defer func() { in.tr.Sched = sched }()
	var eff []float64
	for i := 0; i < 12; i++ {
		var dt [2]time.Duration
		for k, r := range []float64{rates.Min(), 1} {
			in.tr.Sched = slicing.Fixed{Rate: r}
			t0 := time.Now()
			in.tr.Step(in.batch)
			dt[k] = time.Since(t0)
		}
		eff = append(eff, ratio(float64(dt[0]), float64(dt[1])))
	}
	return quantile(eff, 0.5)
}

// check: training on one batch must drive its loss down and keep it finite.
func (in *trainInst) check() (checked, bad int) {
	if in.diverged || !(in.lossLast < in.lossFirst) {
		return 1, 1
	}
	return 1, 0
}
