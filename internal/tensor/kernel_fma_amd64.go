package tensor

// FMA backend of the axpy micro-kernel (the fma tier's vector path). Unlike
// the AVX kernels of kernel_amd64.go, each lane here contracts every
// multiply-add into one VFMADD231PD — acc = fma(a, b, acc), rounded once —
// matching the math.FMA chain the fma tier's scalar loops evaluate, so the
// tier is bit-deterministic across the vector/scalar dispatch boundary even
// though it is not bit-identical to the exact tier. Detection is at process
// start via CPUID; non-FMA hosts stay on the math.FMA scalar loops.

// useFMA gates the fused vector kernels; overridable in tests to pin the
// vector/scalar determinism of the fma tier.
var useFMA = cpuHasFMA()

// cpuHasFMA reports whether the CPU supports FMA3 alongside AVX and the OS
// saves YMM state.
func cpuHasFMA() bool

// axpyQuad2FMA computes, for j in [0, len(c0)):
//
//	c0[j] = fma(a0[3],b3[j], fma(a0[2],b2[j], fma(a0[1],b1[j], fma(a0[0],b0[j], c0[j]))))
//	c1[j] = fma(a1[3],b3[j], fma(a1[2],b2[j], fma(a1[1],b1[j], fma(a1[0],b0[j], c1[j]))))
//
// b0..b3 and c1 must hold at least len(c0) elements, a0 and a1 at least 4.
//
//go:noescape
func axpyQuad2FMA(c0, c1, b0, b1, b2, b3, a0, a1 []float64)

// axpyQuad1FMA is the one-row form of axpyQuad2FMA.
//
//go:noescape
func axpyQuad1FMA(c0, b0, b1, b2, b3, a0 []float64)

// fmaDot4x8 is the C-resident 4×8 dot micro-kernel: it computes, for four C
// row slices c0..c3 (each at least 8 wide) against four A row slices a0..a3
// (each at least kcb long) and a B panel with row stride ldb,
//
//	cr[j] = fma(ar[kcb-1],b[kcb-1][j], ... fma(ar[1],b[1][j], fma(ar[0],b[0][j], cr[j])))
//
// for r in 0..3 and j in 0..7 — the same ascending-k fused chain as the
// axpyQuad kernels and math.FMA, carried in registers across the whole kcb
// panel instead of spilling to C every four k steps. b must hold at least
// (kcb-1)·ldb + 8 elements.
//
//go:noescape
func fmaDot4x8(kcb int, a0, a1, a2, a3, b []float64, ldb int, c0, c1, c2, c3 []float64)
