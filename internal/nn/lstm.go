package nn

import (
	"fmt"
	"math"
	"math/rand"

	"modelslicing/internal/tensor"
)

const (
	lstmGates = 4 // input, forget, cell, output
	lstmTaps  = 6 // per hidden unit and step: the activated gates, c and tanh c
)

// LSTM is a single Long Short-Term Memory layer over sequences shaped
// [T, B, In], producing hidden states [T, B, H]. Section 3.3 slices a
// recurrent layer with one rate that covers "all input and output sets,
// including hidden/memory states and various gates": the four gates are
// stacked row-wise, in the order input, forget, cell, output, in Wx [4H × In],
// Wh [4H × H] and B [4H], and at rate r the leading aIn inputs and the
// leading aH rows *of each gate block* form the sliced sub-layer. Forward and
// Infer run the same sequence loop, Forward also keeping its taps.
type LSTM struct {
	In, Hidden      int
	InSpec, HidSpec SliceSpec
	// Rescale stabilizes the pre-activation scale by In/aIn (input term)
	// and H/aH (recurrent term) when the layer runs without normalization,
	// mirroring the output rescaling the paper uses for NNLM.
	Rescale bool

	Wx *Param // [4H, In]
	Wh *Param // [4H, H]
	B  *Param // [4H]

	seq seqState // Forward's, until Backward drops it
}

// seqState is one pass's shapes and the buffers Backward reads.
type seqState struct {
	x                    *tensor.Tensor // [T, B, aIn]
	hs                   []float64      // [T+1, B, aH]; frame 0 is the zero state
	taps                 []float64      // [T+1, B, 6·aH] (Forward) or two frames (Infer)
	seqT, batch, aIn, aH int
	sx, sh               float64
	// split reports separate x- and h-side pre-activation buffers: a
	// rescale factor differs from 1.
	split bool
}

// NewLSTM constructs an LSTM with uniform initialization 1/sqrt(H), zero
// biases and the customary forget-gate bias of 1.
func NewLSTM(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *LSTM {
	inSpec.Validate("LSTM.In", in)
	hidSpec.Validate("LSTM.Hidden", hidden)
	l := &LSTM{
		In: in, Hidden: hidden, InSpec: inSpec, HidSpec: hidSpec, Rescale: rescale,
		Wx: NewParam("lstm.Wx", true, lstmGates*hidden, in),
		Wh: NewParam("lstm.Wh", true, lstmGates*hidden, hidden),
		B:  NewParam("lstm.B", false, lstmGates*hidden),
	}
	bound := 1 / math.Sqrt(float64(hidden))
	tensor.InitUniform(l.Wx.Value, bound, rng)
	tensor.InitUniform(l.Wh.Value, bound, rng)
	for i := hidden; i < 2*hidden; i++ {
		l.B.Value.Data[i] = 1 // forget gate
	}
	return l
}

// Active returns the active (input, hidden) widths at slice rate r.
func (l *LSTM) Active(r float64) (aIn, aH int) {
	return l.InSpec.Active(r, l.In), l.HidSpec.Active(r, l.Hidden)
}

// scales returns the input- and hidden-side rescale factors at widths
// (aIn, aH).
func (l *LSTM) scales(aIn, aH int) (sx, sh float64) {
	sx, sh = 1, 1
	if l.Rescale && aIn < l.In {
		sx = float64(l.In) / float64(aIn)
	}
	if l.Rescale && aH < l.Hidden {
		sh = float64(l.Hidden) / float64(aH)
	}
	return sx, sh
}

// Forward runs the sequence [T, B, aIn] and returns the hidden states
// [T, B, aH], keeping every step's taps for Backward.
func (l *LSTM) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	s, out := l.run(ctx, x, true)
	l.seq = s
	return out
}

// Infer runs the same loop on the read-only inference path: no layer field
// is written and two tap frames ping-pong.
func (l *LSTM) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	_, out := l.run(ctx, x, false)
	return out
}

// row returns row i of a buffer of w-wide rows.
func row(buf []float64, i, w int) []float64 { return buf[i*w : (i+1)*w] }

// run is the sequence loop. Every buffer comes from the context's arena;
// the hidden states go straight into the output, which doubles as hs.
func (l *LSTM) run(ctx *Context, x *tensor.Tensor, keep bool) (seqState, *tensor.Tensor) {
	r := ctx.EffRate()
	aIn, aH := l.Active(r)
	if x.Rank() != 3 || x.Dim(2) != aIn {
		panic(fmt.Sprintf("nn: LSTM input %v, want [T B %d] at rate %v", x.Shape, aIn, r))
	}
	s := seqState{x: x, seqT: x.Dim(0), batch: x.Dim(1), aIn: aIn, aH: aH}
	s.sx, s.sh = l.scales(aIn, aH)
	s.split = s.sx != 1 || s.sh != 1
	T, B, gw, tw := s.seqT, s.batch, lstmGates*aH, lstmTaps*aH
	arena := arenaOf(ctx)
	s.hs = arena.GetUninit(T+1, B, aH).Data
	clear(s.hs[:B*aH])
	frames := 2
	if keep {
		frames = T + 1
	}
	s.taps = arena.GetUninit(frames, B, tw).Data
	clear(s.taps[:B*tw])
	zx := arena.GetUninit(B, gw).Data
	zh := zx
	if s.split {
		zh = arena.GetUninit(B, gw).Data
	}
	for t := 0; t < T; t++ {
		hPrev := s.hs[t*B*aH : (t+1)*B*aH]
		l.preact(&s, x.Data[t*B*aIn:(t+1)*B*aIn], hPrev, zx, zh)
		prev, cur := t%frames*B, (t+1)%frames*B
		for b := 0; b < B; b++ {
			l.step(row(zx, b, gw), row(s.hs, (t+1)*B+b, aH), row(s.taps, prev+b, tw), row(s.taps, cur+b, tw))
		}
	}
	return s, arena.Wrap(s.hs[B*aH:], T, B, aH)
}

// preact computes one step's pre-activations per gate block, zx = x·Wxᵀ and
// zh = h·Whᵀ. Unsplit, both GEMMs accumulate into the one buffer; split,
// each side is rescaled and summed into zx.
func (l *LSTM) preact(s *seqState, xt, hPrev, zx, zh []float64) {
	B, aIn, aH, gw := s.batch, s.aIn, s.aH, lstmGates*s.aH
	clear(zx)
	clear(zh)
	for k := 0; k < lstmGates; k++ {
		tensor.GemmTB(B, aH, aIn, xt, aIn, l.Wx.Value.Data[k*l.Hidden*l.In:], l.In, zx[k*aH:], gw)
		tensor.GemmTB(B, aH, aH, hPrev, aH, l.Wh.Value.Data[k*l.Hidden*l.Hidden:], l.Hidden, zh[k*aH:], gw)
	}
	if !s.split {
		return
	}
	scaleBy(zx, s.sx)
	scaleBy(zh, s.sh)
	for i, v := range zh {
		zx[i] += v
	}
}

// scaleBy multiplies v by a unless a is 1.
func scaleBy(v []float64, a float64) {
	if a == 1 {
		return
	}
	for i := range v {
		v[i] *= a
	}
}

// step writes one sample's h and this step's taps cur from its
// pre-activations z [4·aH] and the previous step's taps prev.
func (l *LSTM) step(z, h, prev, cur []float64) {
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

// stepBack writes one sample's pre-activation gradient dz given
// dh = ∂L/∂h_t; dc carries the cell-state gradient from step t to t−1.
func (l *LSTM) stepBack(dh, prev, cur, dz, dc []float64) {
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

// Backward propagates through time, accumulating the weight gradients, and
// returns dx [T, B, aIn]. Dropping the taps is its last act, so nothing of
// the pass — a step arena's slab included — outlives it.
func (l *LSTM) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	s := &l.seq
	T, B, aIn, aH := s.seqT, s.batch, s.aIn, s.aH
	if dy.Rank() != 3 || dy.Dim(0) != T || dy.Dim(1) != B || dy.Dim(2) != aH {
		panic(fmt.Sprintf("nn: LSTM.Backward grad %v, want [%d %d %d]", dy.Shape, T, B, aH))
	}
	gw, tw, H := lstmGates*aH, lstmTaps*aH, l.Hidden
	arena := arenaOf(ctx)
	dx := arena.Get(T, B, aIn)
	dh := arena.Get(B, aH).Data // ∂L/∂h_t through h_{t+1}, then plus dy_t
	dhPrev := arena.GetUninit(B, aH).Data
	dc := arena.Get(B, aH).Data
	dzx := arena.GetUninit(B, gw).Data
	dzh := dzx
	if s.split {
		dzh = arena.GetUninit(B, gw).Data
	}
	for t := T - 1; t >= 0; t-- {
		for i, v := range dy.Data[t*B*aH : (t+1)*B*aH] {
			dh[i] = v + dh[i]
		}
		clear(dhPrev)
		hPrev := s.hs[t*B*aH : (t+1)*B*aH]
		for b := 0; b < B; b++ {
			l.stepBack(row(dh, b, aH), row(s.taps, t*B+b, tw), row(s.taps, (t+1)*B+b, tw),
				row(dzx, b, gw), row(dc, b, aH))
		}
		// The bias sits outside the rescaled products.
		l.addBiasGrad(dzx, B, aH)
		if s.split {
			copy(dzh, dzx)
			scaleBy(dzx, s.sx)
			scaleBy(dzh, s.sh)
		}
		xt := s.x.Data[t*B*aIn : (t+1)*B*aIn]
		dxt := dx.Data[t*B*aIn : (t+1)*B*aIn]
		for k := 0; k < lstmGates; k++ {
			wx, wh := k*H*l.In, k*H*H
			// dWx[k] += dzxₖᵀ·x, dWh[k] += dzhₖᵀ·h_{t-1},
			// dx += dzxₖ·Wx[k], dh_{t-1} += dzhₖ·Wh[k]
			tensor.GemmTA(aH, aIn, B, dzx[k*aH:], gw, xt, aIn, l.Wx.Grad().Data[wx:], l.In)
			tensor.GemmTA(aH, aH, B, dzh[k*aH:], gw, hPrev, aH, l.Wh.Grad().Data[wh:], H)
			tensor.Gemm(B, aIn, aH, dzx[k*aH:], gw, l.Wx.Value.Data[wx:], l.In, dxt, aIn)
			tensor.Gemm(B, aH, aH, dzh[k*aH:], gw, l.Wh.Value.Data[wh:], H, dhPrev, aH)
		}
		dh, dhPrev = dhPrev, dh
	}
	l.seq = seqState{}
	return dx
}

// addBiasGrad adds a [B × 4·aH] pre-activation gradient, summed over the
// batch, to the leading aH entries of each gate block of B's gradient.
func (l *LSTM) addBiasGrad(dz []float64, batch, aH int) {
	for s := 0; s < batch; s++ {
		for k := 0; k < lstmGates; k++ {
			db := l.B.Grad().Data[k*l.Hidden : k*l.Hidden+aH]
			for j, v := range row(dz, s*lstmGates+k, aH) {
				db[j] += v
			}
		}
	}
}

// Params returns Wx, Wh and B.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
