package nn

import (
	"math"
	"math/rand"
)

// GRU is a Gated Recurrent Unit layer (Cho et al., 2014) over sequences
// shaped [T, B, In], with PyTorch gate conventions:
//
//	r_t = σ(W_r·x + b_r + U_r·h + c_r)
//	z_t = σ(W_z·x + b_z + U_z·h + c_z)
//	n_t = tanh(W_n·x + b_n + r_t ⊙ (U_n·h + c_n))
//	h_t = (1−z_t) ⊙ n_t + z_t ⊙ h_{t−1}
//
// Gates are stacked row-wise in the order r, z, n and prefix-sliced as in
// every recurrent layer (see recurrent). The reset gate multiplies the
// hidden side of n alone, so a GRU keeps the two sides apart.
type GRU struct {
	recurrent
	Bx *Param // [3H] input-side bias
	Bh *Param // [3H] hidden-side bias
}

// NewGRU constructs a GRU with uniform 1/sqrt(H) initialization.
func NewGRU(in, hidden int, inSpec, hidSpec SliceSpec, rescale bool, rng *rand.Rand) *GRU {
	g := &GRU{}
	// Taps per step: the activated r and z, n, and U_n·h + c_n.
	g.recurrent = newRecurrent(g, "GRU", 3, 4, in, hidden, inSpec, hidSpec, rescale, true, rng)
	g.Bx, g.Bh = g.bx, g.bh
	return g
}

func (g *GRU) step(zx, zh, hPrev, h, _, cur []float64) {
	aH, H, bx, bh := len(h), g.Hidden, g.Bx.Value.Data, g.Bh.Value.Data
	rz, n, hu := cur[:2*aH], cur[2*aH:3*aH], cur[3*aH:]
	for j := range h {
		rv := sigmoid(zx[j] + bx[j] + zh[j] + bh[j])
		zv := sigmoid(zx[aH+j] + bx[H+j] + zh[aH+j] + bh[H+j])
		huv := zh[2*aH+j] + bh[2*H+j]
		nv := math.Tanh(zx[2*aH+j] + bx[2*H+j] + rv*huv)
		rz[j], rz[aH+j], n[j], hu[j] = rv, zv, nv, huv
		h[j] = (1-zv)*nv + zv*hPrev[j]
	}
}

func (g *GRU) stepBack(dh, hPrev, _, _, cur, dzx, dzh, dhPrev, _ []float64) {
	aH := len(dh)
	rz, n, hu := cur[:2*aH], cur[2*aH:3*aH], cur[3*aH:]
	for j, dhv := range dh {
		rv, zv, nv := rz[j], rz[aH+j], n[j]
		dz := dhv * (hPrev[j] - nv)
		dn := dhv * (1 - zv)
		dhPrev[j] = dhv * zv
		dnPre := dn * (1 - nv*nv)
		dr := dnPre * hu[j]
		drPre := dr * rv * (1 - rv)
		dzPre := dz * zv * (1 - zv)
		dzx[j], dzx[aH+j], dzx[2*aH+j] = drPre, dzPre, dnPre
		dzh[j], dzh[aH+j], dzh[2*aH+j] = drPre, dzPre, dnPre*rv
	}
}

func (g *GRU) resized(in, hidden int, rng *rand.Rand) Layer {
	return NewGRU(in, hidden, Fixed(), Fixed(), false, rng)
}
