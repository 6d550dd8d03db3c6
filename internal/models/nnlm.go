package models

import (
	"math/rand"

	"modelslicing/internal/nn"
)

// NNLMConfig describes the neural-network language model of Section 5.2: an
// input embedding, a stack of LSTM layers, and a dense decoder, with model
// slicing applied to the recurrent layers and the decoder input ("all the
// hidden layers except the input and output layers") and output rescaling on
// the decoder.
type NNLMConfig struct {
	Vocab  int
	Embed  int
	Hidden int
	Layers int
	// Dropout follows the embedding and every LSTM layer (the paper uses
	// 0.5 on PTB).
	Dropout float64
	Groups  int
	// RescaleLSTM applies input/hidden rescaling inside the LSTMs; the
	// decoder always rescales its sliced input (the paper's "output dense
	// layer with output rescaling").
	RescaleLSTM bool
}

// NNLMPaper returns the PTB configuration of Section 5.2.2: embedding 650,
// two LSTM layers of 640 units.
func NNLMPaper() NNLMConfig {
	return NNLMConfig{
		Vocab: 10000, Embed: 650, Hidden: 640, Layers: 2,
		Dropout: 0.5, Groups: 16, RescaleLSTM: true,
	}
}

// NNLMMini returns the scaled-down configuration trained on the synthetic
// Markov corpus.
func NNLMMini(vocab, groups int) NNLMConfig {
	return NNLMConfig{
		Vocab: vocab, Embed: 32, Hidden: 64, Layers: 2,
		Dropout: 0.25, Groups: groups, RescaleLSTM: true,
	}
}

// ScaleWidths returns a copy with embed and hidden scaled by num/den (the
// fixed-width NNLM ensemble of Figure 4). The embedding dimension is kept —
// only hidden layers vary, as in the paper's varying-width ensemble.
func (c NNLMConfig) ScaleWidths(num, den int) NNLMConfig {
	out := c
	out.Hidden = scaleW(c.Hidden, num, den)
	return out
}

// NewNNLM builds the language model. Input is a [T, B] tensor of token ids;
// output is [T·B, Vocab] logits aligned with data.LMBatches labels.
func NewNNLM(cfg NNLMConfig, rng *rand.Rand) *nn.Sequential {
	seq := &nn.Sequential{}
	seq.Layers = append(seq.Layers, nn.NewEmbedding(cfg.Vocab, cfg.Embed, rng))
	if cfg.Dropout > 0 {
		seq.Layers = append(seq.Layers, nn.NewDropout(cfg.Dropout))
	}
	in := cfg.Embed
	inSpec := nn.Fixed() // embedding output is full width
	hidSpec := nn.Sliced(cfg.Groups)
	for l := 0; l < cfg.Layers; l++ {
		seq.Layers = append(seq.Layers, nn.NewLSTM(in, cfg.Hidden, inSpec, hidSpec, cfg.RescaleLSTM, rng))
		if cfg.Dropout > 0 {
			seq.Layers = append(seq.Layers, nn.NewDropout(cfg.Dropout))
		}
		in = cfg.Hidden
		inSpec = hidSpec
	}
	dec := nn.NewDense(cfg.Hidden, cfg.Vocab, hidSpec, nn.Fixed(), true, rng)
	dec.Rescale = true
	seq.Layers = append(seq.Layers, nn.NewTimeFlatten(), dec)
	return seq
}

// NewMLP builds a plain multi-layer perceptron with sliced hidden layers —
// the quickstart model.
func NewMLP(in int, hidden []int, classes, groups int, rng *rand.Rand) *nn.Sequential {
	seq := &nn.Sequential{}
	prev := in
	prevSpec := nn.Fixed()
	for _, h := range hidden {
		spec := nn.Sliced(groups)
		seq.Layers = append(seq.Layers,
			nn.NewDense(prev, h, prevSpec, spec, true, rng),
			nn.NewReLU(),
		)
		prev = h
		prevSpec = spec
	}
	seq.Layers = append(seq.Layers,
		nn.NewDense(prev, classes, prevSpec, nn.Fixed(), true, rng))
	return seq
}
