package tensor

import (
	"fmt"
	"sync"
)

// The GEMM kernels below operate on raw row-major slices so that layers can
// address sliced (prefix) sub-matrices of larger weight buffers without
// copying. Every micro-kernel accumulates into the destination (C += ...),
// which is what gradient accumulation across scheduled subnets needs; the
// assign-mode (β=0) entry points get plain assignment by zeroing each C tile
// in the tile loop, just before its first k-panel, so one kernel per tier
// serves both modes.
//
// ld* are leading dimensions (row strides) of the underlying buffers, which
// may exceed the logical number of columns when a prefix slice of a wider
// matrix is being used.
//
// Every product but training's windowed weight gradient (GemmShiftTB, a dot
// tile in shift.go) funnels into one cache-blocked engine (gemmBlocked) built
// around a 2×4 axpy micro-kernel: four rows of B are fused into each pass
// over a pair of C rows, so every loaded value feeds multiple multiply-adds
// and no accumulator dependency chain forms — the pattern Go's scalar
// codegen schedules best (a register-tiled dot-product micro-kernel loses
// here because its sixteen live accumulators spill). On AVX hosts the
// quad-axpy inner loop dispatches to a vector kernel that evaluates the same
// expression tree per lane, bit-identically (kernel_amd64.go). B panels are
// blocked to stay L2-resident across the row sweep. Only an operand's layout
// differs between entries, and the engine takes it as an operand kind:
// strided, transposed (Aᵀ for GemmTA, Bᵀ for GemmTB; repacked into
// row-major panels from a buffer pool so the micro-kernel always streams
// contiguously), a persistent PackedMat for immutable inference weights
// (pack.go), or the shifted rows of a padded image (shift.go). Every product runs on the calling goroutine. Serving's
// parallelism is the server's shards; in training only Conv2D splits the
// batch (nn.parallelFor), and Dense and the recurrent layers run each
// whole-batch product on one goroutine.

// Blocking parameters.
const (
	// kcBlock × ncBlock bounds the B panel kept hot across the row sweep
	// (256·256·8 B = 512 KiB, inside a server-class L2); mcBlock bounds the
	// packed Aᵀ block of the GemmTA path to the same pool buffer size.
	kcBlock = 256
	ncBlock = 256
	mcBlock = 256

	// smallGemmFlops gates only the assign-mode Bᵀ products (GemmTBEx
	// and GemmTBPrefersPacked): below this m·n·k a small serving Dense
	// product runs faster on the strided dot loop than on a packed panel.
	// The accumulating training products route by shape instead (GemmTA,
	// GemmTB).
	smallGemmFlops = 48 * 48 * 48

	// minPanelRows is the shape rule of the accumulating transposed
	// products: the blocked engine pays one transpose-pack per panel, which
	// needs at least a full quad of k-rows (GemmTA) or of C rows reusing the
	// packed Bᵀ panel (GemmTB) to earn back. Thinner products keep the
	// strided loops (DESIGN §7 has the shape sweep).
	minPanelRows = 4
)

// Epilogue describes a fused transform applied to every element of C while
// its panel is still cache-hot, immediately after the final k-panel of an
// assign-mode (β=0) GEMM. Alpha and the row vectors fold into one multiply
// and one add per element; each element of row i goes through, in order:
//
//	s = Alpha · RowScale[i]              (Alpha 0 is treated as 1, a nil
//	                                      RowScale as 1; rounded once per row)
//	t = RowShift[i]                      (0 when RowShift is nil)
//	v = s · acc + t
//	v = v + ColShift[j]                  (when ColShift is non-nil)
//	v = max(v, 0)                        (when ReLU is set; NaN clamps to 0,
//	                                      matching a standalone v > 0 ReLU)
//
// The fold rounds differently from applying Alpha and RowScale[i] one at a
// time (Alpha 3, RowScale 0.1, acc 0.1·0.3 gives 0.009000000000000001 here
// and 0.009 step by step), and the +t runs even when RowShift is nil, so an
// Alpha-only epilogue turns a −0 product into +0. Only a row with s = 1 and
// t = 0 and no column step or ReLU is left untouched. No caller sets Alpha
// together with RowScale.
//
// Row vectors index the C row (a convolution's output channel: folded
// BatchNorm scale/shift, conv bias); column vectors index the C column (a
// dense layer's output unit: bias); Alpha is a uniform multiplier (output
// rescaling). Fusing these into the GEMM turns a Conv→BN→ReLU or
// Dense→ReLU chain into a single pass over the output instead of one extra
// full memory sweep per post-op.
//
// Epilogues exist only on the assign-mode entry points (the Ex entries):
// applying an affine or clamp step to an accumulating C would also transform
// whatever the caller had accumulated so far.
type Epilogue struct {
	Alpha              float64
	RowScale, RowShift []float64
	ColShift           []float64
	ReLU               bool
}

// empty reports whether the epilogue would leave C untouched.
func (ep *Epilogue) empty() bool {
	return ep == nil || (ep.Alpha == 0 || ep.Alpha == 1) && ep.RowScale == nil && ep.RowShift == nil &&
		ep.ColShift == nil && !ep.ReLU
}

// check validates the epilogue vector lengths against the product shape.
func (ep *Epilogue) check(m, n int) {
	if ep == nil {
		return
	}
	if ep.RowScale != nil {
		checkVec("Epilogue RowScale", m, len(ep.RowScale))
	}
	if ep.RowShift != nil {
		checkVec("Epilogue RowShift", m, len(ep.RowShift))
	}
	if ep.ColShift != nil {
		checkVec("Epilogue ColShift", n, len(ep.ColShift))
	}
}

// packPool recycles transpose-packing panels (kcBlock×ncBlock floats) so
// steady-state GEMM calls allocate nothing.
var packPool = sync.Pool{
	New: func() any {
		buf := make([]float64, kcBlock*ncBlock)
		return &buf
	},
}

// Gemm computes C[m×n] += A[m×k] · B[k×n] on the exact tier. Training and
// every unpacked product run exact; only the packed entries that serve
// immutable weights (GemmPackedExT, GemmTBPackedExT) take a tier.
func Gemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	checkMat("Gemm A", m, k, lda, len(a))
	checkMat("Gemm B", k, n, ldb, len(b))
	checkMat("Gemm C", m, n, ldc, len(c))
	gemmBlocked(TierExact, m, n, k, operand{data: a, ld: lda}, operand{data: b, ld: ldb}, c, ldc, false, nil)
}

// GemmEx computes C[m×n] = epilogue(A[m×k] · B[k×n]) on the exact tier —
// assign mode (β=0): C is fully overwritten, so callers may pass
// uninitialized storage (Arena.GetUninit) and skip the zero-fill pass. The
// epilogue (which may be nil) is applied to each C panel while it is still
// cache-hot. The accumulation order per element is identical to Gemm into a
// zeroed C, so results are bit-identical to the unfused sequence when the
// epilogue steps match.
func GemmEx(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, ep *Epilogue) {
	checkMat("GemmEx A", m, k, lda, len(a))
	checkMat("GemmEx B", k, n, ldb, len(b))
	checkMat("GemmEx C", m, n, ldc, len(c))
	gemmAssign(TierExact, m, n, k, operand{data: a, ld: lda}, operand{data: b, ld: ldb}, c, ldc, ep)
}

// GemmTBEx computes C[m×n] = epilogue(A · Bᵀ) where B is stored as [n×k] —
// the assign-mode, fused-epilogue variant of GemmTB on the exact tier (see
// GemmEx). Products below the small-GEMM threshold run the strided dot
// kernel, larger ones the blocked engine.
func GemmTBEx(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, ep *Epilogue) {
	checkMat("GemmTBEx A", m, k, lda, len(a))
	checkMat("GemmTBEx B", n, k, ldb, len(b))
	checkMat("GemmTBEx C", m, n, ldc, len(c))
	if m*n*k >= smallGemmFlops {
		gemmAssign(TierExact, m, n, k, operand{data: a, ld: lda}, operand{kind: opTrans, data: b, ld: ldb}, c, ldc, ep)
		return
	}
	ep.check(m, n)
	zeroTile(m, n, c, ldc)
	gemmTBSimple(m, n, k, a, lda, b, ldb, c, ldc)
	if !ep.empty() {
		applyEpilogue(m, n, c, ldc, ep, 0, 0)
	}
}

// GemmCounters is a snapshot of the engine's global kernel dispatch
// counters.
type GemmCounters struct {
	// Fanouts is always 0: the engine no longer splits a product across
	// goroutines. The field stays only because the benchmark harness still
	// reads it for its tensor.fanouts_per_pass_r100 metric.
	Fanouts int64
	// Kernels counts micro-panel kernel dispatches per tier (indexed by
	// EngineTier), split by whether the vector kernel or the scalar
	// fallback ran — the serving layer surfaces these as
	// msserver_gemm_kernel_total{tier,kernel}.
	Kernels [NumTiers]KernelCounters
}

// GemmStats returns the process-wide GEMM dispatch counters.
func GemmStats() GemmCounters {
	var gc GemmCounters
	for t := 0; t < NumTiers; t++ {
		gc.Kernels[t] = KernelCounters{
			Vector: kernelVectorCount[t].Load(),
			Scalar: kernelScalarCount[t].Load(),
		}
	}
	return gc
}

// GemmTA computes C[m×n] += Aᵀ · B where A is stored as [k×m]. Only a
// product with fewer than four k-rows stays on the strided axpy loop: the
// quad-axpy kernel consumes k four rows at a time, so below that the blocked
// path would be a scalar tail behind a pack.
func GemmTA(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	checkMat("GemmTA A", k, m, lda, len(a))
	checkMat("GemmTA B", k, n, ldb, len(b))
	checkMat("GemmTA C", m, n, ldc, len(c))
	if k < minPanelRows {
		gemmTASimple(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	gemmBlocked(TierExact, m, n, k, operand{kind: opTrans, data: a, ld: lda}, operand{data: b, ld: ldb}, c, ldc, false, nil)
}

// GemmTB computes C[m×n] += A · Bᵀ where B is stored as [n×k]. Only a
// product with fewer than four C rows stays on the strided dot loop: the
// packed Bᵀ panel must be reused by at least four rows to pay for its
// transpose.
func GemmTB(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	checkMat("GemmTB A", m, k, lda, len(a))
	checkMat("GemmTB B", n, k, ldb, len(b))
	checkMat("GemmTB C", m, n, ldc, len(c))
	if m < minPanelRows {
		gemmTBSimple(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	gemmBlocked(TierExact, m, n, k, operand{data: a, ld: lda}, operand{kind: opTrans, data: b, ld: ldb}, c, ldc, false, nil)
}

// --- simple strided paths for small transposed products ---

func gemmTASimple(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for p := 0; p < k; p++ {
		ap := a[p*lda : p*lda+m]
		bp := b[p*ldb : p*ldb+n]
		for i, av := range ap {
			if av == 0 {
				// Gradients arriving through ReLU/dropout masks are often
				// exactly zero; skipping whole axpy rows is a real win on
				// this backward-path kernel (unlike the forward Gemm, where
				// the same branch was pure inner-loop cost and is gone).
				continue
			}
			ci := c[i*ldc : i*ldc+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTBSimple(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			// Four partial sums break the serial dependence on a single
			// accumulator.
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+3 < k; p += 4 {
				s0 += ai[p] * bj[p]
				s1 += ai[p+1] * bj[p+1]
				s2 += ai[p+2] * bj[p+2]
				s3 += ai[p+3] * bj[p+3]
			}
			for ; p < k; p++ {
				s0 += ai[p] * bj[p]
			}
			ci[j] += s0 + s1 + s2 + s3
		}
	}
}

// zeroTile clears a rows×cols tile of C with row stride ldc — the β=0 half of
// an assign-mode product, run just before the tile's first accumulating
// k-panel so the kernel that follows finds it cache-hot.
func zeroTile(rows, cols int, c []float64, ldc int) {
	for i := 0; i < rows; i++ {
		clear(c[i*ldc : i*ldc+cols])
	}
}

// --- blocked engine ---

// vecMinCols is the narrowest C panel worth a vector call: below it the
// per-call overhead (slice setup, broadcast reloads) beats the lane win. The
// threshold is shared by both vector families — the exact tier's AVX kernels
// and the fma tier's FMA kernels (kernel_fma.go) — because the overhead
// it amortizes (per-call setup against per-lane wins) is the same regardless
// of which instruction the inner loop retires.
const vecMinCols = 8

// opKind is the memory layout of one operand of the blocked engine.
type opKind uint8

const (
	opStrided opKind = iota // row-major with row stride ld, read in place
	opTrans                 // stored transposed (row stride ld), repacked per panel
	opPacked                // a PackedMat's panels (data is the pack's storage)
	opShift                 // B only: the shifted-row windows of an image (shift.go)
)

// operand is one side of a blocked product: its buffer and the layout that
// decides how a panel of it is addressed.
type operand struct {
	kind   opKind
	data   []float64
	ld     int // row stride (opShift: the padded image's row stride)
	kh, kw int // opShift: kernel taps per channel
	plane  int // opShift: channel stride of the image
}

// aPanel returns the block A[ic:ic+mcb, pc:pc+kcb] of an m-row A in
// row-major form with its row stride, transposing it into scratch first when
// A is stored transposed.
func (o operand) aPanel(scratch []float64, m, pc, kcb, ic, mcb int) ([]float64, int) {
	switch o.kind {
	case opTrans:
		// scratch[i×kcb] = A[pc:pc+kcb, ic:ic+mcb]ᵀ.
		packTrans(scratch, mcb, kcb, o.data, o.ld, pc, ic)
		return scratch, kcb
	case opPacked:
		return o.data[m*pc+ic*kcb:], kcb
	}
	return o.data[ic*o.ld+pc:], o.ld
}

// bPanel returns the panel B[pc:pc+kcb, jc:jc+ncb] of an n-column B with its
// row stride, transposing it into scratch first when B is stored transposed.
// Shifted rows have no stride: the panel is the image from column jc on, and
// rowOffsets locates each row in it.
func (o operand) bPanel(scratch []float64, n, pc, kcb, jc, ncb int) ([]float64, int) {
	switch o.kind {
	case opTrans:
		// scratch[p×ncb] = B[jc:jc+ncb, pc:pc+kcb]ᵀ.
		packTrans(scratch, kcb, ncb, o.data, o.ld, jc, pc)
		return scratch, ncb
	case opPacked:
		return o.data[pc*n+kcb*jc:], ncb
	case opShift:
		return o.data[jc:], 0
	}
	return o.data[pc*o.ld+jc:], o.ld
}

// rowOffsets fills offs with the start of each row of the k-panel at pc
// inside the slice bPanel returned, and returns it: p·ld for stored rows;
// for shifted rows, row (ci·kh + ki)·kw + kj is the tap window at
// ci·plane + ki·ld + kj, stepped without a division.
func (o operand) rowOffsets(offs []int, pc, ld int) []int {
	if o.kind != opShift {
		for p := range offs {
			offs[p] = p * ld
		}
		return offs
	}
	taps := o.kh * o.kw
	ci, ki, kj := pc/taps, pc%taps/o.kw, pc%o.kw
	for p := range offs {
		offs[p] = ci*o.plane + ki*o.ld + kj
		if kj++; kj == o.kw {
			kj = 0
			if ki++; ki == o.kh {
				ki, ci = 0, ci+1
			}
		}
	}
	return offs
}

// gemmAssign is the assign-mode (β=0) body every Ex entry runs once its
// operands are checked: it validates the epilogue against the product shape
// and drops a no-op one, then runs the blocked engine — or, for k = 0,
// writes the empty sum (zeros) and runs the epilogue.
func gemmAssign(tier EngineTier, m, n, k int, a, b operand, c []float64, ldc int, ep *Epilogue) {
	ep.check(m, n)
	if ep.empty() {
		ep = nil
	}
	if k > 0 {
		gemmBlocked(tier, m, n, k, a, b, c, ldc, true, ep)
		return
	}
	zeroTile(m, n, c, ldc)
	if ep != nil {
		applyEpilogue(m, n, c, ldc, ep, 0, 0)
	}
}

// gemmBlocked runs C (+)= A·B one (kc × nc) B panel at a time: the panel
// stays L2-resident while the C rows sweep across it, and C is revisited
// only k/kc times. Each operand's kind decides only how a panel is addressed
// (aPanel, bPanel); the loop and the panel kernels are the same for every
// kind, so a packed or shifted product is bit-identical to the strided one.
// The ic loop only subdivides the rows when a transposed A block must fit
// the pool buffer (GemmTA); otherwise it runs once over all rows. Shifted
// rows take a column panel kh·kw times wider: the tap windows of a channel
// overlap, so a kcb-row panel touches only kcb/(kh·kw) channels of the image
// and keeps the engine's footprint — a VGG-sized plane is one panel.
//
// With assign set, each C tile is zeroed just before its first k-panel
// (β=0), so callers may hand in uninitialized storage. A non-nil epilogue is
// applied to each C tile right after its final k-panel, while the tile is
// still cache-hot. Shifted rows run on the exact tier only: the fma tier's
// kernels read B at one stride.
func gemmBlocked(tier EngineTier, m, n, k int, a, b operand, c []float64, ldc int, assign bool, ep *Epilogue) {
	var aPack, bPack []float64
	if a.kind == opTrans {
		buf := packPool.Get().(*[]float64)
		defer packPool.Put(buf)
		aPack = *buf
	}
	if b.kind == opTrans {
		buf := packPool.Get().(*[]float64)
		defer packPool.Put(buf)
		bPack = *buf
	}
	icStep, jcStep := m, ncBlock
	if a.kind == opTrans {
		icStep = mcBlock
	}
	if b.kind == opShift {
		jcStep *= b.kh * b.kw
	}
	var offs [kcBlock]int
	for pc := 0; pc < k; pc += kcBlock {
		kcb := min(kcBlock, k-pc)
		for ic := 0; ic < m; ic += icStep {
			mcb := min(icStep, m-ic)
			ablk, lda := a.aPanel(aPack, m, pc, kcb, ic, mcb)
			for jc := 0; jc < n; jc += jcStep {
				ncb := min(jcStep, n-jc)
				bp, ldb := b.bPanel(bPack, n, pc, kcb, jc, ncb)
				ct := c[ic*ldc+jc:]
				if assign && pc == 0 {
					zeroTile(mcb, ncb, ct, ldc)
				}
				if tier == TierExact {
					gemmPanel(mcb, ncb, kcb, ablk, lda, bp, b.rowOffsets(offs[:kcb], pc, ldb), ct, ldc)
				} else {
					gemmPanelFMA(mcb, ncb, kcb, ablk, lda, bp, ldb, ct, ldc)
				}
				if pc+kcb == k && ep != nil {
					applyEpilogue(mcb, ncb, ct, ldc, ep, ic, jc)
				}
			}
		}
	}
}

// gemmPanel is the exact tier's 2×4 axpy micro-kernel: C[rows×ncb] +=
// A[rows×kcb] · B, B row p being b[offs[p]:][:ncb]. Two C rows advance
// together through four B rows, so each loaded B value feeds four
// independent multiply-adds (sixteen flops per four B loads) and the panel
// is streamed only ⌈rows/2⌉ times; an odd last row runs the same expressions
// alone. Per element the accumulation order is the k-quads ascending, then
// the k tail one step at a time, whichever path runs. On AVX hosts a panel
// at least vecMinCols wide hands the quad-axpy and the k-tail steps to the
// vector kernels, which evaluate the scalar expression tree verbatim per
// lane (kernel_amd64.go), so the choice — made and counted once per panel —
// changes no bit. Reslicing every row to ncb lets the compiler drop the
// scalar loops' bounds checks.
func gemmPanel(rows, ncb, kcb int, a []float64, lda int, b []float64, offs []int, c []float64, ldc int) {
	vec := useAVX && ncb >= vecMinCols
	countPanel(TierExact, vec)
	i := 0
	for ; i+2 <= rows; i += 2 {
		ai0 := a[i*lda : i*lda+kcb]
		ai1 := a[(i+1)*lda : (i+1)*lda+kcb]
		ci0 := c[i*ldc:][:ncb]
		ci1 := c[(i+1)*ldc:][:ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			b0, b1, b2, b3 := b[offs[p]:][:ncb], b[offs[p+1]:][:ncb], b[offs[p+2]:][:ncb], b[offs[p+3]:][:ncb]
			if vec {
				axpyQuad2AVX(ci0, ci1, b0, b1, b2, b3, ai0[p:p+4], ai1[p:p+4])
				continue
			}
			a00, a01, a02, a03 := ai0[p], ai0[p+1], ai0[p+2], ai0[p+3]
			a10, a11, a12, a13 := ai1[p], ai1[p+1], ai1[p+2], ai1[p+3]
			for j, bv := range b0 {
				b1v, b2v, b3v := b1[j], b2[j], b3[j]
				ci0[j] += a00*bv + a01*b1v + a02*b2v + a03*b3v
				ci1[j] += a10*bv + a11*b1v + a12*b2v + a13*b3v
			}
		}
		for ; p < kcb; p++ {
			a0v, a1v := ai0[p], ai1[p]
			bp := b[offs[p]:][:ncb]
			if vec {
				axpyStep2AVX(ci0, ci1, bp, a0v, a1v)
				continue
			}
			for j := range ci0 {
				bv := bp[j]
				ci0[j] += a0v * bv
				ci1[j] += a1v * bv
			}
		}
	}
	if i < rows {
		ai := a[i*lda : i*lda+kcb]
		ci := c[i*ldc:][:ncb]
		p := 0
		for ; p+4 <= kcb; p += 4 {
			b0, b1, b2, b3 := b[offs[p]:][:ncb], b[offs[p+1]:][:ncb], b[offs[p+2]:][:ncb], b[offs[p+3]:][:ncb]
			if vec {
				axpyQuad1AVX(ci, b0, b1, b2, b3, ai[p:p+4])
				continue
			}
			a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
			for j, bv := range b0 {
				ci[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < kcb; p++ {
			av := ai[p]
			bp := b[offs[p]:][:ncb]
			if vec {
				axpyStep1AVX(ci, bp, av)
				continue
			}
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
}

// applyEpilogue runs the fused post-GEMM transform over a rows×cols C tile
// whose top-left element sits at (rowOff, colOff) of the full product. The
// row affine is folded into one (scale, shift) pair per row; the common
// row-only cases get dedicated inner loops so conv epilogues never test
// per-element flags.
func applyEpilogue(rows, cols int, c []float64, ldc int, ep *Epilogue, rowOff, colOff int) {
	alpha := ep.Alpha
	if alpha == 0 {
		alpha = 1
	}
	var colShift []float64
	if ep.ColShift != nil {
		colShift = ep.ColShift[colOff : colOff+cols]
	}
	for i := 0; i < rows; i++ {
		scale, shift := alpha, 0.0
		if ep.RowScale != nil {
			scale *= ep.RowScale[rowOff+i]
		}
		if ep.RowShift != nil {
			shift = ep.RowShift[rowOff+i]
		}
		ci := c[i*ldc : i*ldc+cols]
		switch {
		case colShift == nil && ep.ReLU:
			for j, v := range ci {
				v = scale*v + shift
				// !(v > 0) rather than v < 0 so NaN clamps to 0 exactly
				// like the standalone ReLU layer's v > 0 test.
				if !(v > 0) {
					v = 0
				}
				ci[j] = v
			}
		case colShift == nil:
			if scale == 1 && shift == 0 {
				continue
			}
			for j, v := range ci {
				ci[j] = scale*v + shift
			}
		default:
			for j, v := range ci {
				v = scale*v + shift + colShift[j]
				if ep.ReLU && !(v > 0) {
					v = 0
				}
				ci[j] = v
			}
		}
	}
}

// packTrans writes dst[rows×cols] = src[r0:r0+cols, c0:c0+rows]ᵀ for a
// row-major src with stride ld, i.e. dst[i·cols+j] = src[(r0+j)·ld + c0+i].
// Reads run along src rows (contiguous); writes stride by cols, which the
// blocked caller keeps cache-sized.
func packTrans(dst []float64, rows, cols int, src []float64, ld, r0, c0 int) {
	for j := 0; j < cols; j++ {
		s := src[(r0+j)*ld+c0 : (r0+j)*ld+c0+rows]
		for i, v := range s {
			dst[i*cols+j] = v
		}
	}
}

// checkMat validates that a rows×cols matrix with leading dimension ld fits
// inside a buffer of the given length.
func checkMat(name string, rows, cols, ld, length int) {
	if ld < cols {
		panic(fmt.Sprintf("tensor: %s leading dimension %d < cols %d", name, ld, cols))
	}
	if rows > 0 && (rows-1)*ld+cols > length {
		panic(fmt.Sprintf("tensor: %s buffer too short: need %d, have %d", name, (rows-1)*ld+cols, length))
	}
}

// checkVec validates that a vector operand holds at least n elements,
// reporting failures in the same style as checkMat.
func checkVec(name string, n, length int) {
	if n > length {
		panic(fmt.Sprintf("tensor: %s buffer too short: need %d, have %d", name, n, length))
	}
}
