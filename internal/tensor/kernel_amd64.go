package tensor

// AVX backend of the axpy micro-kernel. The quad-axpy inner loop of
// gemmPanel vectorizes over the C columns: each lane evaluates exactly the
// scalar expression ((a0·b0 + a1·b1) + a2·b2) + a3·b3 with VEX mul/add (no
// FMA — a fused multiply-add rounds once where the scalar code rounds twice),
// so every C element receives bit-identical results to the scalar kernel and
// the engine's accumulation-order contract survives the speedup. Detection is
// at process start via CPUID; non-AVX hosts and short panels stay on the
// scalar loops.

// useAVX gates the vector kernels; overridable in tests to pin scalar/vector
// equivalence.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU supports AVX and the OS saves YMM state.
func cpuHasAVX() bool

// axpyQuad2AVX computes, for j in [0, len(c0)):
//
//	c0[j] += a0[0]·b0[j] + a0[1]·b1[j] + a0[2]·b2[j] + a0[3]·b3[j]
//	c1[j] += a1[0]·b0[j] + a1[1]·b1[j] + a1[2]·b2[j] + a1[3]·b3[j]
//
// b0..b3 and c1 must hold at least len(c0) elements, a0 and a1 at least 4.
//
//go:noescape
func axpyQuad2AVX(c0, c1, b0, b1, b2, b3, a0, a1 []float64)

// axpyQuad1AVX is the one-row form of axpyQuad2AVX.
//
//go:noescape
func axpyQuad1AVX(c0, b0, b1, b2, b3, a0 []float64)
