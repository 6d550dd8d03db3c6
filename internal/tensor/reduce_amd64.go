package tensor

// AVX backends of Sum, SumSqDev and NormAffine (reduce.go): the same lane
// order and the same unfused mul/add sequence as the Go loops, four lanes per
// instruction. MaxPool2x2Row (reduce.go) and CopyRows (shift.go) have theirs
// here too.

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

// maxPool2x2AVX is MaxPool2x2Row's vector body: len(dst) is a multiple of 4,
// r0 and r1 hold 2·len(dst) elements.
//
//go:noescape
func maxPool2x2AVX(dst, r0, r1 []float64)

// copyRowsAVX is CopyRows' vector form for cols ≥ 4.
//
//go:noescape
func copyRowsAVX(dst []float64, ldd int, src []float64, lds int, rows, cols int)
