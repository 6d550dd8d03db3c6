package tensor

import "fmt"

// Element-wise and reduction primitives for the non-GEMM passes
// (normalization forward and backward, pooling). A naive `s += v` loop is
// one serially dependent add per element — latency-bound at 4 cycles each —
// so the reductions here run sixteen independent lanes (four 4-wide
// accumulators) in a fixed order:
//
//	lane l of accumulator q sums x[16·i + 4·q + l] over full blocks of 16,
//	leftover blocks of 4 go to accumulator 0,
//	the accumulators combine as (a0+a1)+(a2+a3) lane-wise, the four lanes as
//	(l0+l2)+(l1+l3), and the last len%4 elements are added in index order.
//
// The order is part of the contract: the AVX kernels (reduce_amd64.s) and the
// Go loops below evaluate it lane for lane — mul then add, never fused — so a
// result does not depend on which one ran, just as with the axpyQuad kernels.

// reduceMinLen is the shortest slice worth a vector call; below it the Go
// loop wins on call overhead. Results are bit-identical on both sides.
const reduceMinLen = 8

// Sum returns Σ x[i] in the fixed lane order above.
func Sum(x []float64) float64 {
	if useAVX && len(x) >= reduceMinLen {
		return sumAVX(x)
	}
	return sumGo(x)
}

// SumSqDev returns Σ (x[i]−mu)² in the fixed lane order above — the second
// pass of a two-pass variance.
func SumSqDev(x []float64, mu float64) float64 {
	if useAVX && len(x) >= reduceMinLen {
		return sumSqDevAVX(x, mu)
	}
	return sumSqDevGo(x, mu)
}

// NormAffine writes dst[i] = gamma·((x[i]−mu)·invStd) + beta for i in
// [0, len(x)) — a normalization's scale-shift pass over one channel — and
// with relu set clamps each result as a trailing ReLU would (v > 0 keeps v,
// anything else, NaN included, becomes 0). dst must hold at least len(x)
// elements and may alias x exactly.
func NormAffine(dst, x []float64, mu, invStd, gamma, beta float64, relu bool) {
	dst = dst[:len(x)]
	if useAVX && len(x) >= reduceMinLen {
		normAffineAVX(dst, x, mu, invStd, gamma, beta, relu)
		return
	}
	normAffineGo(dst, x, mu, invStd, gamma, beta, relu)
}

// NormGradSums returns Σ g[i] and Σ g[i]·x̂[i] over one channel of a
// normalization's backward pass, both in Sum's lane order. x̂[i] is
// (x[i]−mu)·invStd rounded as NormAffine rounds it at gamma 1, beta 0, so it
// is what a forward pass would have stored, recomputed in-register; g[i] is
// dy[i], or with relu set the gradient through a trailing ReLU: dy[i] where
// gamma·x̂[i]+beta > 0 (the NormAffine output the ReLU kept) and +0
// elsewhere, NaN included. dy must hold at least len(x) elements.
func NormGradSums(dy, x []float64, mu, invStd, gamma, beta float64, relu bool) (sumG, sumGX float64) {
	dy = dy[:len(x)]
	if useAVX && len(x) >= reduceMinLen {
		return normGradSumsAVX(dy, x, mu, invStd, gamma, beta, relu)
	}
	return normGradSumsGo(dy, x, mu, invStd, gamma, beta, relu)
}

// NormGrad writes dx[i] = invStd·(g[i]·gamma − a − x̂[i]·b), with g and x̂
// as in NormGradSums: a normalization's input gradient over one channel,
// where a and b are its group's means of γ·g and γ·g·x̂. dx and dy must hold
// at least len(x) elements; dx may alias dy or x exactly.
func NormGrad(dx, dy, x []float64, mu, invStd, gamma, beta, a, b float64, relu bool) {
	dx, dy = dx[:len(x)], dy[:len(x)]
	if useAVX && len(x) >= reduceMinLen {
		normGradAVX(dx, dy, x, mu, invStd, gamma, beta, a, b, relu)
		return
	}
	normGradGo(dx, dy, x, mu, invStd, gamma, beta, a, b, relu)
}

// Grid is the layout of Ch channel windows of Rows×Cols elements in a
// buffer: row r of channel c starts at c·CS + r·LD. Its packed segment is
// the windows read channel by channel and row by row, as if copied into one
// slice of Len elements. Packed planes are the grid {Ch, 1, h·w, h·w, h·w};
// the shifted-row conv's product grid (internal/nn) has LD = w+pad and CS
// the grid's row stride.
type Grid struct{ Ch, Rows, Cols, LD, CS int }

// Len is the length of the packed segment.
func (g *Grid) Len() int { return g.Ch * g.Rows * g.Cols }

// packed reports whether the windows already are their packed segment.
func (g *Grid) packed() bool {
	return (g.Rows == 1 || g.LD == g.Cols) && (g.Ch == 1 || g.CS == g.Rows*g.Cols)
}

// at is the buffer index of element p of the packed segment.
func (g *Grid) at(p int) int {
	c, rc := p/(g.Rows*g.Cols), p%(g.Rows*g.Cols)
	return c*g.CS + rc/g.Cols*g.LD + rc%g.Cols
}

// check panics unless every window of g lies inside a buffer of n elements.
func (g *Grid) check(name string, n int) {
	ch, rows, cols, ld, cs := g.Ch, g.Rows, g.Cols, g.LD, g.CS
	if ch < 0 || rows < 0 || cols < 0 || ld < 0 || cs < 0 || ch*rows*cols > 0 && (ch-1)*cs+(rows-1)*ld+cols > n {
		panic(fmt.Sprintf("tensor: %s: grid %d×%d×%d (row stride %d, channel stride %d) does not fit %d elements",
			name, ch, rows, cols, ld, cs, n))
	}
}

// blocked cuts g's packed segment into whole blocks of 16 elements that sit
// alike, if it can: per channel, groups of rows gstep apart, each holding
// blocks blocks 16 elements apart, whose four 4-lane loads are at offsets
// 0, o1, o2 and o3 (all in elements); groups is 0 when it cannot. A row of a
// multiple of 16 elements is whole blocks, two rows of 8 or four rows of 4
// make one: the square planes a CNN narrows through (16×16, 8×8, 4×4).
// Other grids take the Go twins.
func (g *Grid) blocked() (groups, blocks, o1, o2, o3, gstep int) {
	switch rows, cols, ld := g.Rows, g.Cols, g.LD; {
	case cols%16 == 0:
		return rows, cols / 16, 4, 8, 12, ld
	case cols == 8 && rows%2 == 0:
		return rows / 2, 1, 4, ld, ld + 4, 2 * ld
	case cols == 4 && rows%4 == 0:
		return rows / 4, 1, ld, 2 * ld, 3 * ld, 4 * ld
	}
	return 0, 0, 0, 0, 0, 0
}

// SumGrid returns Sum of g's packed segment of x, read in place. A grid in
// block form (Grid.blocked) runs the vector body, which adds each packed
// block of four elements — one load from a row — to the accumulator Sum's
// order gives it, so the result is bit-identical to Sum over a copy; other
// grids run the Go twin, which walks the same order element by element.
func SumGrid(x []float64, g Grid) float64 {
	g.check("SumGrid", len(x))
	switch {
	case g.Len() == 0:
		return 0
	case g.packed():
		return Sum(x[:g.Len()])
	}
	if groups, blocks, o1, o2, o3, gstep := g.blocked(); useAVX && groups > 0 {
		return sumBlocksAVX(x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep)
	}
	return gridLanesGo(x, g, 0, false)
}

// SumSqDevGrid returns SumSqDev of g's packed segment of x, read in place,
// bit-identical to SumSqDev over a copy as SumGrid is to Sum.
func SumSqDevGrid(x []float64, g Grid, mu float64) float64 {
	g.check("SumSqDevGrid", len(x))
	switch {
	case g.Len() == 0:
		return 0
	case g.packed():
		return SumSqDev(x[:g.Len()], mu)
	}
	if groups, blocks, o1, o2, o3, gstep := g.blocked(); useAVX && groups > 0 {
		return sumSqDevBlocksAVX(x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep, mu)
	}
	return gridLanesGo(x, g, mu, true)
}

// NormAffineGrid is NormAffine from g's windows of x into dst, channel c
// with gamma[c] and beta[c]: one call per normalization group instead of one
// per channel. With dcs 0, dst is g's packed segment. Otherwise dst holds
// the windows addressed as x's are but at channel stride dcs: element j of
// row r of channel c lands at dst[c·dcs + r·g.LD + j] — how the shifted-row
// conv's product grid hands its normalized output to the interior of the
// next conv's padded image (internal/nn). Each element gets NormAffine's
// arithmetic, so dst is bit-identical to NormAffine per channel over a copy.
// When g is packed and dcs is 0, dst may alias x exactly.
func NormAffineGrid(dst []float64, dcs int, x []float64, g Grid, mu, invStd float64, gamma, beta []float64, relu bool) {
	g.check("NormAffineGrid", len(x))
	if dcs == 0 {
		dst = dst[:g.Len()]
	} else {
		(&Grid{g.Ch, g.Rows, g.Cols, g.LD, dcs}).check("NormAffineGrid dst", len(dst))
	}
	gamma, beta = gamma[:g.Ch], beta[:g.Ch]
	if g.Len() == 0 {
		return
	}
	if groups, blocks, o1, o2, o3, gstep := g.blocked(); useAVX && groups > 0 {
		normAffineBlocksAVX(dst, dcs, x, g.Ch, g.CS, groups, blocks, o1, o2, o3, gstep, mu, invStd, gamma, beta, relu)
		return
	}
	normAffineGridRows(dst, dcs, x, g, mu, invStd, gamma, beta, relu)
}

// MaxPool2x2Row writes the first len(dst)&^3 outputs of one output row of a
// 2×2 stride-2 max-pool and returns how many it wrote — 0 on a host without
// AVX, so the caller's loop finishes the row either way. Output j is the
// first tap, in the order r0[2j], r0[2j+1], r1[2j], r1[2j+1], that is greater
// than all before it, starting from −Inf: NaN never wins and a ±0 tie keeps
// the earlier tap. r0 and r1 must hold 2·len(dst) elements.
func MaxPool2x2Row(dst, r0, r1 []float64) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	maxPool2x2AVX(dst[:n], r0[:2*n], r1[:2*n])
	return n
}

// foldLanes combines the sixteen lanes in the contract's order.
func foldLanes(a *[16]float64) float64 {
	var v [4]float64
	for l := range v {
		v[l] = (a[l] + a[4+l]) + (a[8+l] + a[12+l])
	}
	return (v[0] + v[2]) + (v[1] + v[3])
}

func sumGo(x []float64) float64 {
	var a [16]float64
	i := 0
	for ; i+16 <= len(x); i += 16 {
		for l, v := range x[i : i+16] {
			a[l] += v
		}
	}
	for ; i+4 <= len(x); i += 4 {
		for l, v := range x[i : i+4] {
			a[l] += v
		}
	}
	s := foldLanes(&a)
	for _, v := range x[i:] {
		s += v
	}
	return s
}

// The float64 conversions below pin the product's rounding: without them the
// compiler may fuse x*y+z where the target has an FMA (GOAMD64=v3, arm64),
// and the result would no longer match the vector kernels.
func sumSqDevGo(x []float64, mu float64) float64 {
	var a [16]float64
	i := 0
	for ; i+16 <= len(x); i += 16 {
		for l, v := range x[i : i+16] {
			d := v - mu
			a[l] += float64(d * d)
		}
	}
	for ; i+4 <= len(x); i += 4 {
		for l, v := range x[i : i+4] {
			d := v - mu
			a[l] += float64(d * d)
		}
	}
	s := foldLanes(&a)
	for _, v := range x[i:] {
		d := v - mu
		s += float64(d * d)
	}
	return s
}

func normAffineGo(dst, x []float64, mu, invStd, gamma, beta float64, relu bool) {
	if !relu {
		for i, v := range x {
			dst[i] = float64(gamma*((v-mu)*invStd)) + beta
		}
		return
	}
	for i, v := range x {
		o := float64(gamma*((v-mu)*invStd)) + beta
		// !(o > 0): NaN clamps to 0, like the ReLU layer.
		if !(o > 0) {
			o = 0
		}
		dst[i] = o
	}
}

// normGradTerm is element i of NormGradSums and NormGrad: t = (x−mu)·invStd,
// x̂ = t + 0 (NormAffine at gamma 1, beta 0) and the gradient g.
func normGradTerm(dy, x, mu, invStd, gamma, beta float64, relu bool) (g, xhat float64) {
	t := float64((x - mu) * invStd)
	if relu && !(float64(gamma*t)+beta > 0) {
		dy = 0
	}
	return dy, t + 0
}

func normGradSumsGo(dy, x []float64, mu, invStd, gamma, beta float64, relu bool) (sumG, sumGX float64) {
	var ag, agx [16]float64
	quads := len(x) &^ 3
	full := len(x) &^ 15
	for i := 0; i < quads; i++ {
		g, h := normGradTerm(dy[i], x[i], mu, invStd, gamma, beta, relu)
		l := i & 3
		if i < full {
			l = i & 15
		}
		ag[l] += g
		agx[l] += float64(g * h)
	}
	sumG, sumGX = foldLanes(&ag), foldLanes(&agx)
	for i := quads; i < len(x); i++ {
		g, h := normGradTerm(dy[i], x[i], mu, invStd, gamma, beta, relu)
		sumG += g
		sumGX += float64(g * h)
	}
	return sumG, sumGX
}

func normGradGo(dx, dy, x []float64, mu, invStd, gamma, beta, a, b float64, relu bool) {
	for i, v := range x {
		g, h := normGradTerm(dy[i], v, mu, invStd, gamma, beta, relu)
		dx[i] = invStd * (float64(g*gamma) - a - float64(h*b))
	}
}

// gridLanesGo is SumGrid (sq false) and SumSqDevGrid (sq true) for any
// width — the Go twin of their vector bodies: packed element p goes to the
// lane sumGo and sumSqDevGo put x[p] in, and the last len%4 follow the fold.
func gridLanesGo(x []float64, g Grid, mu float64, sq bool) float64 {
	term := func(v float64) float64 {
		if sq {
			d := v - mu
			return float64(d * d)
		}
		return v
	}
	var a [16]float64
	n := g.Len()
	full, quads := n&^15, n&^3
	p := 0
	for c := 0; c < g.Ch; c++ {
		for r := 0; r < g.Rows; r++ {
			for _, v := range x[c*g.CS+r*g.LD:][:g.Cols] {
				if p < full {
					a[p&15] += term(v)
				} else if p < quads {
					a[p&3] += term(v)
				}
				p++
			}
		}
	}
	s := foldLanes(&a)
	for p := quads; p < n; p++ {
		s += term(x[g.at(p)])
	}
	return s
}

// normAffineGridRows is NormAffineGrid one row at a time, for any width.
func normAffineGridRows(dst []float64, dcs int, x []float64, g Grid, mu, invStd float64, gamma, beta []float64, relu bool) {
	ld, cs := g.Cols, g.Rows*g.Cols
	if dcs != 0 {
		ld, cs = g.LD, dcs
	}
	for c := 0; c < g.Ch; c++ {
		for r := 0; r < g.Rows; r++ {
			NormAffine(dst[c*cs+r*ld:], x[c*g.CS+r*g.LD:][:g.Cols], mu, invStd, gamma[c], beta[c], relu)
		}
	}
}
