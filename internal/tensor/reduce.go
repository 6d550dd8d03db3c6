package tensor

// Element-wise and reduction primitives for the non-GEMM passes of the
// forward path (normalization, pooling). A naive `s += v` loop is one serially
// dependent add per element — latency-bound at 4 cycles each — so the
// reductions here run sixteen independent lanes (four 4-wide accumulators)
// in a fixed order:
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
