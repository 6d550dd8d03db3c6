package nn

import (
	"fmt"
	"math/rand"

	"modelslicing/internal/tensor"
)

// Embedding maps integer token ids to dense vectors. Token ids are carried
// in a float64 tensor (exact for ids < 2⁵³). Following the paper, the
// embedding (input) layer is not sliced (Section 5.1.1); its output feeds the
// first recurrent layer at full width.
type Embedding struct {
	V, E int
	W    *Param // [V, E]

	ids []int
}

// NewEmbedding constructs an embedding table initialized U(-0.1, 0.1), the
// standard range for language models.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{V: vocab, E: dim, W: NewParam("emb.W", false, vocab, dim)}
	tensor.InitUniform(e.W.Value, 0.1, rng)
	return e
}

// Forward maps ids of any shape [...] to vectors of shape [..., E] and keeps
// the ids for Backward.
func (e *Embedding) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := e.Infer(ctx, x)
	e.ids = e.ids[:0]
	for _, v := range x.Data {
		e.ids = append(e.ids, int(v))
	}
	return y
}

// Infer gathers embedding rows without caching token ids (read-only path).
func (e *Embedding) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	outShape := append(append([]int(nil), x.Shape...), e.E)
	y := arenaOf(ctx).Get(outShape...)
	for i, v := range x.Data {
		id := int(v)
		if id < 0 || id >= e.V {
			panic(fmt.Sprintf("nn: Embedding id %d out of range [0,%d)", id, e.V))
		}
		copy(y.Data[i*e.E:(i+1)*e.E], e.W.Value.Data[id*e.E:(id+1)*e.E])
	}
	return y
}

// Backward scatter-adds the gradient into the embedding rows of the tokens
// seen in the forward pass. There is no input gradient (ids are discrete),
// so it returns nil.
func (e *Embedding) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if dy.Size() != len(e.ids)*e.E {
		panic(fmt.Sprintf("nn: Embedding.Backward grad size %d, want %d", dy.Size(), len(e.ids)*e.E))
	}
	for i, id := range e.ids {
		row := e.W.Grad().Data[id*e.E : (id+1)*e.E]
		g := dy.Data[i*e.E : (i+1)*e.E]
		for j, v := range g {
			row[j] += v
		}
	}
	return nil
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }
