//go:build !amd64

package tensor

// Non-amd64 hosts have no vector backend; the engine stays on the scalar
// micro-kernels (useAVX/useFMA false means the stubs below are never
// reached). The fma tier still works — its scalar loops use math.FMA,
// which is correctly rounded in software — it just brings no speedup.
var (
	useAVX = false
	useFMA = false
)

func axpyQuad2AVX(c0, c1, b0, b1, b2, b3, a0, a1 []float64) { panic("tensor: no vector kernel") }
func axpyQuad1AVX(c0, b0, b1, b2, b3, a0 []float64)         { panic("tensor: no vector kernel") }
func axpyStep2AVX(c0, c1, b []float64, a0, a1 float64)      { panic("tensor: no vector kernel") }
func axpyStep1AVX(c0, b []float64, a0 float64)              { panic("tensor: no vector kernel") }

func dot2x4AVX(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) { panic("tensor: no vector kernel") }

func axpyQuad2FMA(c0, c1, b0, b1, b2, b3, a0, a1 []float64) { panic("tensor: no vector kernel") }
func axpyQuad1FMA(c0, b0, b1, b2, b3, a0 []float64)         { panic("tensor: no vector kernel") }

func fmaDot4x8(kcb int, a0, a1, a2, a3, b []float64, offs []int, c0, c1, c2, c3 []float64) {
	panic("tensor: no vector kernel")
}

func sumAVX(x []float64) float64                  { panic("tensor: no vector kernel") }
func sumSqDevAVX(x []float64, mu float64) float64 { panic("tensor: no vector kernel") }

func normAffineAVX(dst, x []float64, mu, invStd, gamma, beta float64, relu bool) {
	panic("tensor: no vector kernel")
}

func normGradSumsAVX(dy, x []float64, mu, invStd, gamma, beta float64, relu bool) (sumG, sumGX float64) {
	panic("tensor: no vector kernel")
}

func normGradAVX(dx, dy, x []float64, mu, invStd, gamma, beta, a, b float64, relu bool) {
	panic("tensor: no vector kernel")
}

func sumBlocksAVX(x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int) float64 {
	panic("tensor: no vector kernel")
}

func sumSqDevBlocksAVX(x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int, mu float64) float64 {
	panic("tensor: no vector kernel")
}

func normAffineBlocksAVX(dst []float64, dcs int, x []float64, ch, cs, groups, blocks, o1, o2, o3, gstep int, mu, invStd float64, gamma, beta []float64, relu bool) {
	panic("tensor: no vector kernel")
}

func maxPool2x2AVX(dst, r0, r1 []float64) { panic("tensor: no vector kernel") }

func copyRowsAVX(dst []float64, ldd int, src []float64, lds int, rows, cols int) {
	panic("tensor: no vector kernel")
}
