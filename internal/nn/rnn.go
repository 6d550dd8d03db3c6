package nn

import (
	"math"
	"math/rand"
)

// RNN is a vanilla (Elman) recurrent layer h_t = tanh(Wx·x_t + Wh·h_{t-1} + b)
// over sequences shaped [T, B, In] (Equation 7 of the paper). Both the input
// and the hidden dimension support prefix slicing (see recurrent).
type RNN struct {
	recurrent
	B *Param // [H]
}

// NewRNN constructs a vanilla recurrent layer with uniform 1/sqrt(H) init.
func NewRNN(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *RNN {
	r := &RNN{}
	// No taps: the derivative reads h_t itself.
	r.recurrent = newRecurrent(r, "RNN", 1, 0, in, hidden, inSpec, hidSpec, rescale, false, rng)
	r.B = r.bx
	return r
}

func (r *RNN) step(z, _, _, h, _, _ []float64) {
	b := r.B.Value.Data
	for j := range h {
		h[j] = math.Tanh(z[j] + b[j])
	}
}

func (r *RNN) stepBack(dh, _, h, _, _, dz, _, _, _ []float64) {
	for j, v := range h {
		dz[j] = dh[j] * (1 - v*v)
	}
}

func (r *RNN) resized(in, hidden int, rng *rand.Rand) Layer {
	return NewRNN(in, hidden, Fixed(), Fixed(), false, rng)
}
