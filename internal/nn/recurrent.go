package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"modelslicing/internal/tensor"
)

// cell is the element-wise part of a recurrent layer for one sample at one
// time step; the core does the rest. Hidden rows are aH wide and
// pre-activation rows G·aH. prev and cur are the previous and this step's
// taps: the intermediates the cell keeps for its derivative.
type cell interface {
	// step writes h from the pre-activations zx (input side) and zh (hidden
	// side; the same row when the layer sums the two sides) and hPrev.
	step(zx, zh, hPrev, h, prev, cur []float64)
	// stepBack writes the pre-activation gradients (dzh only for a cell
	// with a hidden-side bias) and any direct term of dhPrev, given
	// dh = ∂L/∂h_t. dc carries the cell's private state gradient across
	// steps.
	stepBack(dh, hPrev, h, prev, cur, dzx, dzh, dhPrev, dc []float64)
	// resized is a fresh fixed-width, unrescaled layer of the same cell.
	resized(in, hidden int, rng *rand.Rand) Layer
}

// recurrent is the core of LSTM, GRU and RNN. Section 3.3 slices a recurrent
// layer with one rate that covers "all input and output sets, including
// hidden/memory states and various gates": the G gates are stacked row-wise
// in Wx [G·H × In] and Wh [G·H × H], and at rate r the leading aIn inputs and
// the leading aH rows *of each gate block* form the sliced sub-layer. The
// core owns that layout, the input check, the rescale factors, the per-gate
// pre-activation GEMMs, the sequence loop and the backward GEMM block;
// Forward and Infer run the same loop, Forward also keeping its taps.
// slicing.Extract and the cost model reach all three cells through the
// core's Extract and Blocks.
type recurrent struct {
	In, Hidden      int
	InSpec, HidSpec SliceSpec
	// Rescale stabilizes the pre-activation scale by In/aIn (input term)
	// and H/aH (recurrent term) when the layer runs without normalization,
	// mirroring the output rescaling the paper uses for NNLM.
	Rescale bool

	Wx *Param // [G·H, In]
	Wh *Param // [G·H, H]

	name   string // "LSTM", "GRU" or "RNN"
	gates  int    // G
	taps   int    // tap row width in units of aH
	bx, bh *Param // [G·H] each; bh is nil for a cell with one bias on the summed sides
	cell   cell
	seq    seqState // Forward's, until Backward drops it
}

// seqState is one pass's shapes and the buffers Backward reads.
type seqState struct {
	x                    *tensor.Tensor // [T, B, aIn]
	hs                   []float64      // [T+1, B, aH]; frame 0 is the zero state
	taps                 []float64      // [T+1, B, taps·aH] (Forward) or two frames (Infer)
	seqT, batch, aIn, aH int
	sx, sh               float64
	// split reports separate x- and h-side pre-activation buffers: the
	// cell reads the sides apart or their rescale factors differ from 1.
	split bool
}

// newRecurrent builds the core of cell c with uniform 1/sqrt(H)
// initialization and zero biases.
func newRecurrent(c cell, name string, gates, taps, in, hidden int, inSpec, hidSpec SliceSpec, rescale, hBias bool, rng *rand.Rand) recurrent {
	inSpec.Validate(name+".In", in)
	hidSpec.Validate(name+".Hidden", hidden)
	p := strings.ToLower(name) + "."
	r := recurrent{
		In: in, Hidden: hidden, InSpec: inSpec, HidSpec: hidSpec, Rescale: rescale,
		Wx:   NewParam(p+"Wx", true, gates*hidden, in),
		Wh:   NewParam(p+"Wh", true, gates*hidden, hidden),
		name: name, gates: gates, taps: taps, cell: c,
	}
	if hBias {
		r.bx, r.bh = NewParam(p+"Bx", false, gates*hidden), NewParam(p+"Bh", false, gates*hidden)
	} else {
		r.bx = NewParam(p+"B", false, gates*hidden)
	}
	bound := 1 / math.Sqrt(float64(hidden))
	tensor.InitUniform(r.Wx.Value, bound, rng)
	tensor.InitUniform(r.Wh.Value, bound, rng)
	return r
}

// Active returns the active (input, hidden) widths at slice rate r.
func (c *recurrent) Active(r float64) (aIn, aH int) {
	return c.InSpec.Active(r, c.In), c.HidSpec.Active(r, c.Hidden)
}

// scales returns the input- and hidden-side rescale factors at widths
// (aIn, aH).
func (c *recurrent) scales(aIn, aH int) (sx, sh float64) {
	sx, sh = 1, 1
	if c.Rescale && aIn < c.In {
		sx = float64(c.In) / float64(aIn)
	}
	if c.Rescale && aH < c.Hidden {
		sh = float64(c.Hidden) / float64(aH)
	}
	return sx, sh
}

// Forward runs the sequence [T, B, aIn] and returns the hidden states
// [T, B, aH], keeping every step's taps for Backward.
func (c *recurrent) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	s, out := c.run(ctx, x, true)
	c.seq = s
	return out
}

// Infer runs the same loop on the read-only inference path: no layer field
// is written and two tap frames ping-pong.
func (c *recurrent) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	_, out := c.run(ctx, x, false)
	return out
}

// row returns row i of a buffer of w-wide rows.
func row(buf []float64, i, w int) []float64 { return buf[i*w : (i+1)*w] }

// run is the sequence loop. Every buffer comes from the context's arena;
// the hidden states go straight into the output, which doubles as hs.
func (c *recurrent) run(ctx *Context, x *tensor.Tensor, keep bool) (seqState, *tensor.Tensor) {
	r := ctx.EffRate()
	aIn, aH := c.Active(r)
	if x.Rank() != 3 || x.Dim(2) != aIn {
		panic(fmt.Sprintf("nn: %s input %v, want [T B %d] at rate %v", c.name, x.Shape, aIn, r))
	}
	s := seqState{x: x, seqT: x.Dim(0), batch: x.Dim(1), aIn: aIn, aH: aH}
	s.sx, s.sh = c.scales(aIn, aH)
	s.split = c.bh != nil || s.sx != 1 || s.sh != 1
	T, B, gw, tw := s.seqT, s.batch, c.gates*aH, c.taps*aH
	arena := arenaOf(ctx)
	s.hs = arena.GetUninit(T+1, B, aH).Data
	clear(s.hs[:B*aH])
	frames := 2
	if keep {
		frames = T + 1
	}
	if tw > 0 {
		s.taps = arena.GetUninit(frames, B, tw).Data
		clear(s.taps[:B*tw])
	}
	zx := arena.GetUninit(B, gw).Data
	zh := zx
	if s.split {
		zh = arena.GetUninit(B, gw).Data
	}
	for t := 0; t < T; t++ {
		hPrev := s.hs[t*B*aH : (t+1)*B*aH]
		c.preact(&s, x.Data[t*B*aIn:(t+1)*B*aIn], hPrev, zx, zh)
		prev, cur := t%frames*B, (t+1)%frames*B
		for b := 0; b < B; b++ {
			c.cell.step(row(zx, b, gw), row(zh, b, gw), row(hPrev, b, aH), row(s.hs, (t+1)*B+b, aH),
				row(s.taps, prev+b, tw), row(s.taps, cur+b, tw))
		}
	}
	return s, arena.Wrap(s.hs[B*aH:], T, B, aH)
}

// preact computes one step's pre-activations per gate block, zx = x·Wxᵀ and
// zh = h·Whᵀ. Unsplit, both GEMMs accumulate into the one buffer; split,
// each side is rescaled and, for a cell with one bias, summed into zx.
func (c *recurrent) preact(s *seqState, xt, hPrev, zx, zh []float64) {
	B, aIn, aH, gw := s.batch, s.aIn, s.aH, c.gates*s.aH
	clear(zx)
	clear(zh)
	for k := 0; k < c.gates; k++ {
		tensor.GemmTB(B, aH, aIn, xt, aIn, c.Wx.Value.Data[k*c.Hidden*c.In:], c.In, zx[k*aH:], gw)
		tensor.GemmTB(B, aH, aH, hPrev, aH, c.Wh.Value.Data[k*c.Hidden*c.Hidden:], c.Hidden, zh[k*aH:], gw)
	}
	if !s.split {
		return
	}
	scaleBy(zx, s.sx)
	scaleBy(zh, s.sh)
	if c.bh == nil {
		for i, v := range zh {
			zx[i] += v
		}
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

// Backward propagates through time, accumulating the weight gradients, and
// returns dx [T, B, aIn]. Dropping the taps is its last act, so nothing of
// the pass — a step arena's slab included — outlives it.
func (c *recurrent) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	s := &c.seq
	T, B, aIn, aH := s.seqT, s.batch, s.aIn, s.aH
	if dy.Rank() != 3 || dy.Dim(0) != T || dy.Dim(1) != B || dy.Dim(2) != aH {
		panic(fmt.Sprintf("nn: %s.Backward grad %v, want [%d %d %d]", c.name, dy.Shape, T, B, aH))
	}
	gw, tw, H := c.gates*aH, c.taps*aH, c.Hidden
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
			c.cell.stepBack(row(dh, b, aH), row(hPrev, b, aH), row(s.hs, (t+1)*B+b, aH),
				row(s.taps, t*B+b, tw), row(s.taps, (t+1)*B+b, tw),
				row(dzx, b, gw), row(dzh, b, gw), row(dhPrev, b, aH), row(dc, b, aH))
		}
		// The biases sit outside the rescaled products.
		c.addBiasGrad(c.bx, dzx, B, aH)
		if c.bh != nil {
			c.addBiasGrad(c.bh, dzh, B, aH)
		} else if s.split {
			copy(dzh, dzx)
		}
		if s.split {
			scaleBy(dzx, s.sx)
			scaleBy(dzh, s.sh)
		}
		xt := s.x.Data[t*B*aIn : (t+1)*B*aIn]
		dxt := dx.Data[t*B*aIn : (t+1)*B*aIn]
		for k := 0; k < c.gates; k++ {
			wx, wh := k*H*c.In, k*H*H
			// dWx[k] += dzxₖᵀ·x, dWh[k] += dzhₖᵀ·h_{t-1},
			// dx += dzxₖ·Wx[k], dh_{t-1} += dzhₖ·Wh[k]
			tensor.GemmTA(aH, aIn, B, dzx[k*aH:], gw, xt, aIn, c.Wx.Grad.Data[wx:], c.In)
			tensor.GemmTA(aH, aH, B, dzh[k*aH:], gw, hPrev, aH, c.Wh.Grad.Data[wh:], H)
			tensor.Gemm(B, aIn, aH, dzx[k*aH:], gw, c.Wx.Value.Data[wx:], c.In, dxt, aIn)
			tensor.Gemm(B, aH, aH, dzh[k*aH:], gw, c.Wh.Value.Data[wh:], H, dhPrev, aH)
		}
		dh, dhPrev = dhPrev, dh
	}
	c.seq = seqState{}
	return dx
}

// addBiasGrad adds a [B × G·aH] pre-activation gradient, summed over the
// batch, to the leading aH entries of each gate block of b's gradient.
func (c *recurrent) addBiasGrad(b *Param, dz []float64, batch, aH int) {
	for s := 0; s < batch; s++ {
		for k := 0; k < c.gates; k++ {
			db := b.Grad.Data[k*c.Hidden : k*c.Hidden+aH]
			for j, v := range row(dz, s*c.gates+k, aH) {
				db[j] += v
			}
		}
	}
}

// Params returns Wx, Wh and the bias (x-side then h-side for a GRU).
func (c *recurrent) Params() []*Param {
	if c.bh == nil {
		return []*Param{c.Wx, c.Wh, c.bx}
	}
	return []*Param{c.Wx, c.Wh, c.bx, c.bh}
}

// Blocks returns the number of stacked gate blocks G and of G·Hidden bias
// vectors: what the cost model needs of the layout.
func (c *recurrent) Blocks() (gates, biases int) { return c.gates, len(c.Params()) - 2 }

// Extract returns a standalone layer of the same cell whose full width is
// the active width at rate r: the leading aH rows of every gate block and
// bias, with the rescale factors folded into the weights.
func (c *recurrent) Extract(r float64) Layer {
	aIn, aH := c.Active(r)
	sx, sh := c.scales(aIn, aH)
	// The copy's initialization is overwritten below.
	out := c.cell.resized(aIn, aH, rand.New(rand.NewSource(0)))
	dst := out.Params()
	copyGateBlocks(c.gates, aH, aIn, c.Hidden, dst[0].Value.Data, c.Wx.Value.Data, c.In, sx)
	copyGateBlocks(c.gates, aH, aH, c.Hidden, dst[1].Value.Data, c.Wh.Value.Data, c.Hidden, sh)
	for i, b := range c.Params()[2:] {
		copyGateBlocks(c.gates, aH, 1, c.Hidden, dst[2+i].Value.Data, b.Value.Data, 1, 1)
	}
	return out
}

// copyGateBlocks copies, for each of nGates stacked [hidden × srcLD] blocks,
// the leading aRows×aCols sub-matrix into a [nGates·aRows × aCols]
// destination, scaling values by scale.
func copyGateBlocks(nGates, aRows, aCols, hidden int, dst, src []float64, srcLD int, scale float64) {
	for k := 0; k < nGates; k++ {
		for r := 0; r < aRows; r++ {
			d := row(dst, k*aRows+r, aCols)
			for j, v := range src[(k*hidden+r)*srcLD : (k*hidden+r)*srcLD+aCols] {
				d[j] = v * scale
			}
		}
	}
}
