package nn

import (
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// TestConvInferPackedBitIdenticalToUnpacked pins the layer-level packed-path
// contract: Conv2D.Infer through the persistent weight pack must reproduce
// the unpacked engine bit for bit at every width (the conv orientation always
// runs the blocked engine, where the pack preserves accumulation order).
func TestConvInferPackedBitIdenticalToUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	conv := NewConv2D(4, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), true, rng)
	x := tensor.New(3, 4, 9, 9)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range []float64{0.25, 0.5, 0.75, 1} {
		aIn, _ := conv.Active(r)
		xr := tensor.New(3, aIn, 9, 9)
		copy(xr.Data, x.Data[:len(xr.Data)])
		packed := conv.Infer(&Context{Rate: r}, xr)
		unpacked := conv.Infer(&Context{Rate: r, NoPack: true}, xr)
		if !packed.SameShape(unpacked) {
			t.Fatalf("rate %v: shape %v vs %v", r, packed.Shape, unpacked.Shape)
		}
		for i := range unpacked.Data {
			if packed.Data[i] != unpacked.Data[i] {
				t.Fatalf("rate %v: packed[%d]=%g, unpacked=%g (not bit-identical)",
					r, i, packed.Data[i], unpacked.Data[i])
			}
		}
	}
	if conv.packCacheBytes() == 0 {
		t.Fatal("conv served packed passes but holds no pack bytes")
	}
}

// TestDenseInferPackedMatchesUnpacked pins the dense orientation: above the
// blocked-engine threshold the packed path is bit-identical to the unpacked
// one; below it the layer skips packing entirely (the strided dot-product
// kernel wins there), so no pack memory may appear.
func TestDenseInferPackedMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(62))

	big := NewDense(128, 96, Sliced(4), Fixed(), true, rng)
	x := tensor.New(48, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range []float64{0.25, 0.5, 1} {
		aIn, _ := big.Active(r)
		xr := tensor.New(48, aIn)
		copy(xr.Data, x.Data[:len(xr.Data)])
		packed := big.Infer(&Context{Rate: r}, xr)
		unpacked := big.Infer(&Context{Rate: r, NoPack: true}, xr)
		for i := range unpacked.Data {
			if packed.Data[i] != unpacked.Data[i] {
				t.Fatalf("rate %v: packed[%d]=%g, unpacked=%g (not bit-identical)",
					r, i, packed.Data[i], unpacked.Data[i])
			}
		}
	}
	if !tensor.GemmTBPrefersPacked(48, 96, 128) {
		t.Fatal("test shape unexpectedly below the blocked threshold")
	}
	if big.packCacheBytes() == 0 {
		t.Fatal("blocked-size dense served packed passes but holds no pack bytes")
	}

	small := NewDense(16, 8, Fixed(), Fixed(), true, rng)
	xs := tensor.New(4, 16)
	for i := range xs.Data {
		xs.Data[i] = rng.NormFloat64()
	}
	small.Infer(&Context{}, xs)
	if small.packCacheBytes() != 0 {
		t.Fatalf("small dense built a pack (%d bytes) below the blocked threshold", small.packCacheBytes())
	}
}

// TestPackCacheAccounting verifies the per-width keying and the exact memory
// accounting: one pack per distinct active width, each costing its prefix
// size, reported through PackCacheBytes and stable across repeat passes.
func TestPackCacheAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	conv := NewConv2D(4, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng)
	x := func(aIn int) *tensor.Tensor {
		xr := tensor.New(2, aIn, 6, 6)
		for i := range xr.Data {
			xr.Data[i] = rng.NormFloat64()
		}
		return xr
	}
	want := int64(0)
	seen := map[[2]int]bool{}
	for _, r := range []float64{0.25, 0.5, 0.75, 1} {
		aIn, aOut := conv.Active(r)
		conv.Infer(&Context{Rate: r}, x(aIn))
		key := [2]int{aOut, aIn * 9}
		if !seen[key] {
			seen[key] = true
			want += int64(aOut * aIn * 9 * 8)
		}
	}
	if got := PackCacheBytes(conv); got != want {
		t.Fatalf("PackCacheBytes = %d, want %d", got, want)
	}
	// Re-serving the same widths must reuse the packs, not grow the cache.
	for _, r := range []float64{0.25, 1} {
		aIn, _ := conv.Active(r)
		conv.Infer(&Context{Rate: r}, x(aIn))
	}
	if got := PackCacheBytes(conv); got != want {
		t.Fatalf("PackCacheBytes grew on reuse: %d, want %d", got, want)
	}
}

// TestPackInvalidatedByTraining pins the coherence contract: a Forward pass
// (the training path) drops cached packs, so inference after a weight update
// serves the new weights, not a stale pack.
func TestPackInvalidatedByTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	conv := NewConv2D(3, 4, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
	x := tensor.New(1, 3, 5, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	before := conv.Infer(&Context{}, x).Clone()
	if conv.packCacheBytes() == 0 {
		t.Fatal("no pack built")
	}

	// A training step: Forward (drops packs), then a weight update.
	conv.Forward(&Context{Training: true}, x)
	for i := range conv.W.Value.Data {
		conv.W.Value.Data[i] *= 2
	}
	after := conv.Infer(&Context{}, x)
	same := true
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("inference after a weight update served the stale pack")
	}
	// And the rebuilt pack must match the unpacked engine on the new weights.
	oracle := conv.Infer(&Context{NoPack: true}, x)
	for i := range oracle.Data {
		if after.Data[i] != oracle.Data[i] {
			t.Fatalf("rebuilt pack differs from unpacked engine at %d", i)
		}
	}
}

// TestConvForwardScratchRecycled pins the training-path satellite: the
// im2col scratch of Conv2D.Forward/Backward comes from a pool, so repeated
// steps stop allocating fresh colRows×spatial buffers.
func TestConvForwardScratchRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	conv := NewConv2D(3, 4, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
	x := tensor.New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ctx := &Context{Training: true}
	y := conv.Forward(ctx, x)
	conv.Backward(ctx, y)

	// The pool must now hold a buffer big enough for this layer's scratch —
	// evidence Forward/Backward returned theirs instead of dropping them.
	colRows, spatial := 3*9, 8*8
	buf := poolGet(&im2colPool, 1)
	defer im2colPool.Put(buf)
	if cap(*buf) < colRows*spatial {
		t.Fatalf("pooled scratch cap %d, want ≥ %d — Forward/Backward did not recycle", cap(*buf), colRows*spatial)
	}
}
