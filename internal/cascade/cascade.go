// Package cascade implements the cascade-ranking simulation of Section 4.2
// and Table 5: a pipeline of classifiers of increasing cost where an item
// survives a stage only if that stage's prediction is consistent with the
// previous stages'. The paper's key claim is that sub-models sliced from one
// model-slicing network make far more consistent predictions than
// independently trained fixed models, so the cascade accumulates fewer false
// negatives (higher aggregate recall) while storing a single model.
package cascade

import (
	"fmt"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/train"
)

// Stage is one classifier of the cascade with its deployment costs.
type Stage struct {
	Name string
	// Width is the slice rate / width multiplier of the stage's model.
	Width float64
	// Predict returns logits for a batch.
	Predict func(x train.Batch) []int
	// Params and MACs are the stage model's deployment costs.
	Params int64
	MACs   int64
}

// StageResult is one row of Table 5.
type StageResult struct {
	Name      string
	Width     float64
	Params    int64
	MACs      int64
	Precision float64 // prediction accuracy of this classifier alone
	AggRecall float64 // fraction of items correctly retrieved by all stages so far
}

// Result aggregates the cascade simulation.
type Result struct {
	Stages []StageResult
	// TotalParams is the storage the solution deploys (sum over distinct
	// models for the ensemble cascade; the largest model for slicing).
	TotalParams int64
	// TotalMACs is the per-item cost of running every stage.
	TotalMACs int64
}

// FinalRecall returns the aggregate recall after the last stage.
func (r Result) FinalRecall() float64 {
	if len(r.Stages) == 0 {
		return 0
	}
	return r.Stages[len(r.Stages)-1].AggRecall
}

// Run evaluates the cascade over the item batches: per stage it computes the
// stand-alone precision and the aggregate recall (items whose predictions
// were correct — hence mutually consistent — at every stage so far).
func Run(stages []Stage, items []train.Batch, sharedParams bool) Result {
	total := 0
	for _, b := range items {
		total += len(b.Labels)
	}
	surviving := make([]bool, total) // correct-at-all-stages-so-far
	for i := range surviving {
		surviving[i] = true
	}
	var res Result
	for _, st := range stages {
		correct := 0
		base := 0
		for _, b := range items {
			preds := st.Predict(b)
			for i, p := range preds {
				if p == b.Labels[i] {
					correct++
				} else {
					surviving[base+i] = false
				}
			}
			base += len(b.Labels)
		}
		kept := 0
		for _, s := range surviving {
			if s {
				kept++
			}
		}
		res.Stages = append(res.Stages, StageResult{
			Name: st.Name, Width: st.Width, Params: st.Params, MACs: st.MACs,
			Precision: float64(correct) / float64(total),
			AggRecall: float64(kept) / float64(total),
		})
		res.TotalMACs += st.MACs
		if !sharedParams {
			res.TotalParams += st.Params
		} else if st.Params > res.TotalParams {
			res.TotalParams = st.Params
		}
	}
	return res
}

// FromSlicedModel builds cascade stages from the subnets of one
// model-slicing network at the given rates; params/MACs come from the cost
// measurements supplied per rate.
func FromSlicedModel(model nn.Layer, rates slicing.RateList, stageRates []float64,
	params, macs func(r float64) int64) []Stage {
	var stages []Stage
	for i, r := range stageRates {
		r := r
		stages = append(stages, Stage{
			Name:  fmt.Sprintf("slice-%d", i+1),
			Width: r,
			Predict: func(b train.Batch) []int {
				logits := slicing.Predict(model, rates, r, b.X)
				out := make([]int, len(b.Labels))
				for j := range out {
					out[j] = logits.ArgMaxRow(j)
				}
				return out
			},
			Params: params(r),
			MACs:   macs(r),
		})
	}
	return stages
}

// FromModels builds cascade stages from independently trained models (the
// conventional cascade baseline).
func FromModels(names []string, widths []float64, models []nn.Layer, params, macs []int64) []Stage {
	var stages []Stage
	for i := range models {
		m := models[i]
		stages = append(stages, Stage{
			Name:  names[i],
			Width: widths[i],
			Predict: func(b train.Batch) []int {
				logits := m.Infer(nn.Eval(1), b.X)
				out := make([]int, len(b.Labels))
				for j := range out {
					out[j] = logits.ArgMaxRow(j)
				}
				return out
			},
			Params: params[i],
			MACs:   macs[i],
		})
	}
	return stages
}
