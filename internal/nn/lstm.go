package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single Long Short-Term Memory layer over sequences shaped
// [T, B, In], producing hidden states [T, B, H]. Model slicing applies to
// the input dimension and to the hidden/memory state (see recurrent). The
// four gates are stacked in the order input, forget, cell, output.
type LSTM struct {
	recurrent
	B *Param // [4H]
}

// NewLSTM constructs an LSTM with uniform initialization 1/sqrt(H) and the
// customary forget-gate bias of 1.
func NewLSTM(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *LSTM {
	l := &LSTM{}
	// Taps per step: the activated gates (i, f, g, o), c and tanh c.
	l.recurrent = newRecurrent(l, "LSTM", 4, 6, in, hidden, inSpec, hidSpec, rescale, false, rng)
	l.B = l.bx
	for i := hidden; i < 2*hidden; i++ {
		l.B.Value.Data[i] = 1 // forget gate
	}
	return l
}

func (l *LSTM) step(z, _, _, h, prev, cur []float64) {
	aH, H, b := len(h), l.Hidden, l.B.Value.Data
	g, c, tc, cp := cur[:4*aH], cur[4*aH:5*aH], cur[5*aH:], prev[4*aH:5*aH]
	for j := range h {
		iv := sigmoid(z[j] + b[j])
		fv := sigmoid(z[aH+j] + b[H+j])
		gv := math.Tanh(z[2*aH+j] + b[2*H+j])
		ov := sigmoid(z[3*aH+j] + b[3*H+j])
		cv := fv*cp[j] + iv*gv
		tv := math.Tanh(cv)
		g[j], g[aH+j], g[2*aH+j], g[3*aH+j] = iv, fv, gv, ov
		c[j], tc[j], h[j] = cv, tv, ov*tv
	}
}

func (l *LSTM) stepBack(dh, _, _, prev, cur, dz, _, _, dc []float64) {
	aH := len(dh)
	g, tc, cp := cur[:4*aH], cur[5*aH:], prev[4*aH:5*aH]
	for j, dhv := range dh {
		iv, fv, gv, ov := g[j], g[aH+j], g[2*aH+j], g[3*aH+j]
		tv := tc[j]
		dov := dhv * tv
		dcv := dc[j] + dhv*ov*(1-tv*tv)
		div := dcv * gv
		dfv := dcv * cp[j]
		dgv := dcv * iv
		dz[j] = div * iv * (1 - iv)
		dz[aH+j] = dfv * fv * (1 - fv)
		dz[2*aH+j] = dgv * (1 - gv*gv)
		dz[3*aH+j] = dov * ov * (1 - ov)
		dc[j] = dcv * fv // becomes dc for t-1
	}
}

func (l *LSTM) resized(in, hidden int, rng *rand.Rand) Layer {
	return NewLSTM(in, hidden, Fixed(), Fixed(), false, rng)
}
