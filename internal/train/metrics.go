package train

import (
	"math"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	correct := 0
	for i := range labels {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Perplexity converts a mean negative log-likelihood (nats) to perplexity.
func Perplexity(meanNLL float64) float64 { return math.Exp(meanNLL) }

// EvalResult aggregates evaluation over a dataset.
type EvalResult struct {
	Loss     float64 // mean cross-entropy (nats)
	Accuracy float64 // fraction correct
	N        int     // number of evaluated rows
}

// ErrorRate returns 1 − Accuracy in percent, the unit of Figures 3 and 7.
func (e EvalResult) ErrorRate() float64 { return 100 * (1 - e.Accuracy) }

// Perplexity returns exp(Loss), the language-modeling metric of Table 2.
func (e EvalResult) Perplexity() float64 { return Perplexity(e.Loss) }

// Evaluate runs the model's inference pass over batches at the given slice
// rate/width index and aggregates loss and accuracy. The model must map
// Batch.X to rank-2 logits whose rows align with Batch.Labels.
func Evaluate(model nn.Layer, rate float64, widthIdx int, batches []Batch) EvalResult {
	var res EvalResult
	totalLoss := 0.0
	correct := 0
	inferBatches(model, rate, widthIdx, batches, func(b Batch, logits *tensor.Tensor) {
		loss, _ := nn.SoftmaxCrossEntropy(nil, logits, b.Labels)
		totalLoss += loss * float64(len(b.Labels))
		for i := range b.Labels {
			if logits.ArgMaxRow(i) == b.Labels[i] {
				correct++
			}
		}
		res.N += len(b.Labels)
	})
	if res.N > 0 {
		res.Loss = totalLoss / float64(res.N)
		res.Accuracy = float64(correct) / float64(res.N)
	}
	return res
}

// inferBatches runs model.Infer over each batch at the given rate and hands
// the batch's logits to visit before the next pass reuses their arena.
func inferBatches(model nn.Layer, rate float64, widthIdx int, batches []Batch, visit func(b Batch, logits *tensor.Tensor)) {
	arena := tensor.NewArena()
	for _, b := range batches {
		visit(b, model.Infer(&nn.Context{Rate: rate, WidthIdx: widthIdx, Arena: arena}, b.X))
		arena.Reset()
	}
}

// InclusionCoefficient measures, for two sets of wrongly-predicted sample
// indices, |A∩B| / min(|A|,|B|) — the fraction of errors of one model
// contained in the other's (the Figure 8 heat-map statistic).
func InclusionCoefficient(wrongA, wrongB map[int]bool) float64 {
	small, large := wrongA, wrongB
	if len(wrongB) < len(wrongA) {
		small, large = wrongB, wrongA
	}
	if len(small) == 0 {
		return 1
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(small))
}

// WrongSet returns the set of row indices (offset by base) misclassified by
// the model over the batches at the given rate.
func WrongSet(model nn.Layer, rate float64, widthIdx int, batches []Batch) map[int]bool {
	wrong := make(map[int]bool)
	base := 0
	inferBatches(model, rate, widthIdx, batches, func(b Batch, logits *tensor.Tensor) {
		for i := range b.Labels {
			if logits.ArgMaxRow(i) != b.Labels[i] {
				wrong[base+i] = true
			}
		}
		base += len(b.Labels)
	})
	return wrong
}
