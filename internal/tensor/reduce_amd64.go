package tensor

// AVX backends of Sum, SumSqDev and NormAffine (reduce.go): the same lane
// order and the same unfused mul/add sequence as the Go loops, four lanes per
// instruction.

// sumAVX is Sum's vector form.
//
//go:noescape
func sumAVX(x []float64) float64

// sumSqDevAVX is SumSqDev's vector form.
//
//go:noescape
func sumSqDevAVX(x []float64, mu float64) float64

// normAffineAVX is NormAffine's vector form; dst must hold len(x) elements.
//
//go:noescape
func normAffineAVX(dst, x []float64, mu, invStd, gamma, beta float64, relu bool)
