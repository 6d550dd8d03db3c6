package nn

import (
	"fmt"
	"math"

	"modelslicing/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean negative log-likelihood of integer
// labels under the softmax of the logits, together with the gradient with
// respect to the logits, which it takes from arena (nil: the heap, as in
// Context.Arena). It is used as the training criterion for both the
// classification and language-modeling experiments.
func SoftmaxCrossEntropy(arena *tensor.Arena, logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy logits %v, want rank 2", logits.Shape))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy %d labels for batch %d", len(labels), b))
	}
	// Every element is written below.
	dlogits = arena.GetUninit(b, k)
	inv := 1 / float64(b)
	for i := 0; i < b; i++ {
		row := logits.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		drow := dlogits.Row(i)
		for j, v := range row {
			e := math.Exp(v - maxv)
			drow[j] = e
			sum += e
		}
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, k))
		}
		logZ := math.Log(sum) + maxv
		loss += logZ - row[lbl]
		for j := range drow {
			drow[j] = drow[j] / sum * inv
		}
		drow[lbl] -= inv
	}
	return loss * inv, dlogits
}

// Softmax returns the row-wise softmax of logits (used at inference time for
// calibrated scores, e.g. cascade-ranking thresholds).
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	b, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(b, k)
	for i := 0; i < b; i++ {
		row := logits.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}
