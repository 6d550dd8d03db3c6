package tensor

import "sync/atomic"

// Arena is a two-half bump allocator for the tensors of one inference pass.
// A forward pass through a deep network allocates one output (and often
// scratch) tensor per layer; with an arena those buffers come from reusable
// slabs, so the steady-state allocation count of an inference is zero and the
// garbage collector never sees the activations.
//
// Usage contract (see DESIGN.md "Zero-copy inference engine"):
//
//   - Get returns a zero-filled tensor valid until the next Reset, unless the
//     half it came from is released first (Flip). Callers that need a result
//     to outlive the pass must copy it out first.
//   - One arena serves one goroutine; arenas are not safe for concurrent
//     use. Concurrent inference uses one arena per worker.
//   - A nil *Arena is valid and falls back to ordinary heap allocation,
//     so code paths can be written against the arena unconditionally.
//
// Get, GetUninit and Wrap take from the current half. An arena that never
// flips is a plain bump allocator on half 0. A layer loop that flips before
// every layer, releasing the half it flips to back to a Mark taken on entry,
// keeps only two layers' activations alive: layer i writes one half while it
// reads layer i−1's output from the other, and by the time the loop returns
// to a half, everything in it above the mark is dead (nn.Sequential.Infer).
//
// The first pass through a model grows the arena (slab spills fall back to
// the heap); from the second pass on, Get is a slice off a slab plus a
// recycled header.
type Arena struct {
	halves [2]half
	cur    int
	// hw mirrors the slabs' summed high-water size for concurrent observers:
	// the owning goroutine publishes it at every Reset, so a metrics scrape
	// can read a worker's arena footprint while the worker is mid-pass
	// without racing on the slabs themselves.
	hw atomic.Int64
	// hdrs recycles Tensor headers (and their Shape backing arrays) across
	// cycles; used counts how many are handed out in the current cycle.
	// Only Release hands headers back mid-cycle; Flip keeps them.
	hdrs []*Tensor
	used int
}

// half is one bump region of an Arena.
type half struct {
	slab []float64
	off  int // next free slab element
	// virt counts the elements handed out this cycle, spilled ones included,
	// and a release rolls it back with off; peak is its high-water mark and
	// the size Reset grows the slab to. Counting spills alone would size a
	// flipped half to its cumulative allocations, not its peak.
	virt, peak int
}

// ArenaMark records the offsets of both halves of an arena, its current
// half and its count of handed-out headers (Arena.Mark).
type ArenaMark struct {
	off, virt [2]int
	cur, used int
}

// NewArena returns an empty arena; each half's slab grows to the high-water
// mark of the first pass and stays there.
func NewArena() *Arena { return &Arena{} }

// Get returns a zero-filled tensor of the given shape whose storage is owned
// by the arena (valid until Reset). A nil arena allocates from the heap.
func (a *Arena) Get(shape ...int) *Tensor {
	return a.get(true, shape)
}

// GetUninit is Get without the zero fill: the returned tensor's contents are
// whatever the slab last held — an earlier pass's data, or, after a release,
// a dead layer's activations from this one. It exists for buffers every
// element of which is about to be overwritten — an assign-mode GEMM
// destination (GemmEx), an im2col scratch, a normalization output — where
// the clear is a wasted full memory pass. Callers that leave any element
// unwritten read garbage; when in doubt, use Get.
func (a *Arena) GetUninit(shape ...int) *Tensor {
	return a.get(false, shape)
}

func (a *Arena) get(zero bool, shape []int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: Arena.Get: non-positive dimension")
		}
		n *= d
	}
	if a == nil {
		// Mirrors New; inlined so the variadic shape never escapes and a
		// slab-served Get stays allocation-free. make always zeroes, so
		// GetUninit degrades to Get off-arena.
		return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	h := &a.halves[a.cur]
	var data []float64
	if h.off+n <= len(h.slab) {
		data = h.slab[h.off : h.off+n : h.off+n]
		h.off += n
		if zero {
			clear(data)
		}
	} else {
		data = make([]float64, n)
	}
	h.virt += n
	h.peak = max(h.peak, h.virt)
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// Wrap returns an arena-owned header viewing data with the given shape — a
// zero-copy reshape whose header is recycled on Reset. A nil arena allocates
// the header from the heap.
func (a *Arena) Wrap(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic("tensor: Arena.Wrap: data length does not match shape")
	}
	if a == nil {
		return &Tensor{Shape: append([]int(nil), shape...), Data: data}
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// header hands out the next recycled Tensor header, growing the pool on the
// first pass.
func (a *Arena) header() *Tensor {
	if a.used < len(a.hdrs) {
		t := a.hdrs[a.used]
		a.used++
		return t
	}
	t := &Tensor{}
	a.hdrs = append(a.hdrs, t)
	a.used++
	return t
}

// Mark records the current offsets of both halves. Nothing allocated before
// the mark is freed by a release to it. A nil arena returns the zero mark.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return ArenaMark{
		off:  [2]int{a.halves[0].off, a.halves[1].off},
		virt: [2]int{a.halves[0].virt, a.halves[1].virt},
		cur:  a.cur,
		used: a.used,
	}
}

// Release rolls the whole arena back to m: both halves, the current half and
// the headers, so every tensor taken since the mark, and its header, is
// invalid and reused by the next Get. A loop that releases per iteration
// (nn.Sequential.Infer's sample chunks) stays within one iteration's
// storage and headers, however many it runs. m must come from Mark in the
// same cycle. A nil arena ignores the call.
func (a *Arena) Release(m ArenaMark) {
	if a == nil {
		return
	}
	for i := range a.halves {
		h := &a.halves[i]
		h.off, h.virt = m.off[i], m.virt[i]
	}
	a.cur, a.used = m.cur, m.used
}

// Flip makes the other half current. With release set it also rolls that
// half back to m, invalidating every tensor taken from it since the mark; m
// must come from Mark in the same cycle. A nil arena ignores the call.
func (a *Arena) Flip(m ArenaMark, release bool) {
	if a == nil {
		return
	}
	a.cur ^= 1
	if release {
		h := &a.halves[a.cur]
		h.off, h.virt = m.off[a.cur], m.virt[a.cur]
	}
}

// Reset invalidates every tensor handed out since the previous Reset and
// makes their storage reusable. A half whose finished cycle peaked past its
// slab grows to that peak, so the next cycle allocates nothing. Growing also
// drops the recycled headers' data: they would otherwise keep the outgrown
// slab and the cycle's spilled buffers reachable until a later pass reuses
// each of them. Only a cycle that spilled grows a half, so the steady state
// clears nothing.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	total := 0
	for i := range a.halves {
		h := &a.halves[i]
		if h.peak > len(h.slab) {
			h.slab = make([]float64, h.peak)
			for _, t := range a.hdrs {
				t.Data = nil
			}
		}
		h.off, h.virt, h.peak = 0, 0, 0
		total += len(h.slab)
	}
	a.hw.Store(int64(total))
	a.cur = 0
	a.used = 0
}

// Footprint reports the arena's current backing size in elements, both
// halves summed — the high-water activation volume of the passes it has
// served.
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return len(a.halves[0].slab) + len(a.halves[1].slab)
}

// HighWaterBytes reports Footprint in bytes as of the last Reset. Unlike
// Footprint it is safe to call from any goroutine while the owner is
// mid-pass — the observability stat hook for per-worker arenas.
func (a *Arena) HighWaterBytes() int64 {
	if a == nil {
		return 0
	}
	return 8 * a.hw.Load()
}
