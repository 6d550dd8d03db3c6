package nn

import (
	"sync"
	"sync/atomic"

	"modelslicing/internal/tensor"
)

// Per-width persistent weight-pack caching. A weight-bearing layer serves
// every slice rate from prefix views of one parent buffer; the packed-GEMM
// path (tensor.PackedMat) additionally wants each active prefix laid out in
// micro-panel order. Since weights are immutable at inference time, each
// active width is packed exactly once — lazily, on the first pass that uses
// it — and the pack is then shared read-only by every goroutine serving that
// width. Memory is O(active-prefix) per deployed width, reported through
// PackCacheBytes.
//
// Cache coherence follows the same contract as the fused serving view
// (nn.Fuse): a model must not be trained while it serves. The training path
// (Forward) drops the owner's packs, so the train → serve sequence always
// rebuilds them from the post-training weights.

// packKey identifies one active width of a weight matrix by the packed
// operand's logical dimensions. The exact and fma tiers read the same f64
// panels — only the inner loop differs — so they share one pack per width.
type packKey struct {
	rows, depth int
}

// packCache lazily builds and serves per-width packs of an immutable weight
// buffer. Reads are lock-free (copy-on-write map behind an atomic
// pointer) so the steady-state inference path stays allocation- and
// contention-free; builds serialize on a mutex, so each key is packed exactly
// once no matter how many workers race to first use it.
type packCache struct {
	mu sync.Mutex
	m  atomic.Pointer[map[packKey]*tensor.PackedMat]
}

// get returns the pack for the key, building it with mk on first use. The
// steady state is one lock-free map read (lookup); only a key's first use
// takes the once-per-key lock (build).
func (pc *packCache) get(k packKey, mk func() *tensor.PackedMat) *tensor.PackedMat {
	if p := pc.lookup(k); p != nil {
		return p
	}
	return pc.build(k, mk)
}

// lookup returns the cached pack for the key, or nil. Never allocates.
func (pc *packCache) lookup(k packKey) *tensor.PackedMat {
	mp := pc.m.Load()
	if mp == nil {
		return nil
	}
	return (*mp)[k]
}

// build returns the pack for the key, constructing and publishing it under
// the once-per-key lock if a concurrent builder has not already done so.
func (pc *packCache) build(k packKey, mk func() *tensor.PackedMat) *tensor.PackedMat {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if mp := pc.m.Load(); mp != nil {
		if p := (*mp)[k]; p != nil {
			return p
		}
	}
	p := mk()
	next := make(map[packKey]*tensor.PackedMat)
	if mp := pc.m.Load(); mp != nil {
		for kk, vv := range *mp {
			next[kk] = vv
		}
	}
	next[k] = p
	pc.m.Store(&next)
	return p
}

// invalidate drops every cached pack; the next inference pass rebuilds from
// the current weights. Cheap when the cache is already empty (one atomic
// load), so the training path calls it unconditionally.
func (pc *packCache) invalidate() {
	if pc.m.Load() == nil {
		return
	}
	pc.mu.Lock()
	pc.m.Store(nil)
	pc.mu.Unlock()
}

// bytes sums the resident panel storage across cached keys.
func (pc *packCache) bytes() int64 {
	mp := pc.m.Load()
	if mp == nil {
		return 0
	}
	var t int64
	for _, p := range *mp {
		t += int64(p.Bytes())
	}
	return t
}

// packOwner is implemented by layers that hold a persistent pack cache.
type packOwner interface {
	packCacheBytes() int64
}

// PackCacheBytes sums the resident packed-panel bytes held by l and, for the
// built-in containers and fused views, every layer inside it — the memory the
// elastic widths are holding beyond the parent parameters.
func PackCacheBytes(l Layer) int64 {
	var t int64
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			t += PackCacheBytes(c)
		}
	case *Residual:
		t += PackCacheBytes(v.Body)
		if v.Short != nil {
			t += PackCacheBytes(v.Short)
		}
	case *FusedConvAct:
		for _, c := range v.src {
			t += PackCacheBytes(c)
		}
	case *FusedDenseAct:
		for _, c := range v.src {
			t += PackCacheBytes(c)
		}
	case *FusedNormAct:
		for _, c := range v.src {
			t += PackCacheBytes(c)
		}
	case packOwner:
		t = v.packCacheBytes()
	}
	return t
}
