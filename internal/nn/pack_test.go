package nn

import (
	"math/rand"
	"sync"
	"testing"

	"modelslicing/internal/tensor"
)

// TestConvInferPackedBitIdenticalToUnpacked pins the layer-level contract of
// the served conv: Conv2D.Infer, reading the weight prefix in place, must
// reproduce GemmEx over each sample's column matrix bit for bit at every
// width, and keep no per-width pack of the weight.
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
		unpacked := unpackedConv(conv, r, xr)
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
	if b := PackCacheBytes(conv); b != 0 {
		t.Fatalf("conv served every width and holds %d pack bytes, want 0", b)
	}
}

// TestDenseInferPackedMatchesUnpacked pins the dense orientation: above the
// blocked-engine threshold the packed path is bit-identical to an unpacked
// GemmTBEx over the weight prefix; below it the layer skips packing entirely
// (the strided dot-product kernel wins there), so no pack memory may appear.
func TestDenseInferPackedMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(62))

	big := NewDense(128, 96, Sliced(4), Fixed(), true, rng)
	x := tensor.New(48, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range []float64{0.25, 0.5, 1} {
		aIn, aOut := big.Active(r)
		xr := tensor.New(48, aIn)
		copy(xr.Data, x.Data[:len(xr.Data)])
		packed := big.Infer(&Context{Rate: r}, xr)
		unpacked := tensor.New(48, aOut)
		tensor.GemmTBEx(48, aOut, aIn, xr.Data, aIn, big.W.Value.Data, big.In, unpacked.Data, aOut, &tensor.Epilogue{ColShift: big.B.Value.Data})
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

// packedDense is a Dense whose every width, served at batch packedBatch, is
// above tensor.GemmTBPrefersPacked, so each width Infer serves builds a pack.
func packedDense(rng *rand.Rand) *Dense { return NewDense(256, 192, Sliced(4), Sliced(4), true, rng) }

const packedBatch = 64

// TestPackCacheAccounting verifies the per-width keying and the exact memory
// accounting: one pack per distinct active width, each costing its prefix
// size, reported through PackCacheBytes and stable across repeat passes.
func TestPackCacheAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := packedDense(rng)
	x := func(aIn int) *tensor.Tensor { return randTensor(rng, packedBatch, aIn) }
	want := int64(0)
	seen := map[[2]int]bool{}
	for _, r := range []float64{0.25, 0.5, 0.75, 1} {
		aIn, aOut := d.Active(r)
		if !tensor.GemmTBPrefersPacked(packedBatch, aOut, aIn) {
			t.Fatalf("rate %v: %d×%d×%d is below the packing threshold", r, packedBatch, aOut, aIn)
		}
		d.Infer(&Context{Rate: r}, x(aIn))
		key := [2]int{aOut, aIn}
		if !seen[key] {
			seen[key] = true
			want += int64(aOut * aIn * 8)
		}
	}
	if got := PackCacheBytes(d); got != want {
		t.Fatalf("PackCacheBytes = %d, want %d", got, want)
	}
	// Re-serving the same widths must reuse the packs, not grow the cache.
	for _, r := range []float64{0.25, 1} {
		aIn, _ := d.Active(r)
		d.Infer(&Context{Rate: r}, x(aIn))
	}
	if got := PackCacheBytes(d); got != want {
		t.Fatalf("PackCacheBytes grew on reuse: %d, want %d", got, want)
	}
}

// TestPackInvalidatedByTraining pins the coherence contract: a Forward pass
// (the training path) drops cached packs, so inference after a weight update
// serves the new weights, not a stale pack.
func TestPackInvalidatedByTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	d := packedDense(rng)
	x := randTensor(rng, packedBatch, d.In)
	before := d.Infer(&Context{}, x).Clone()
	if d.packCacheBytes() == 0 {
		t.Fatal("no pack built")
	}

	// A training step: Forward (drops packs), then a weight update.
	d.Forward(&Context{Training: true}, x)
	for i := range d.W.Value.Data {
		d.W.Value.Data[i] *= 2
	}
	after := d.Infer(&Context{}, x)
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
	// And the rebuilt pack must match the training path on the new weights.
	oracle := d.Forward(&Context{}, x)
	for i := range oracle.Data {
		if after.Data[i] != oracle.Data[i] {
			t.Fatalf("rebuilt pack differs from Forward at %d", i)
		}
	}
}

// unpackedConv is the unpacked oracle of Conv2D.Infer at rate r: per sample,
// GemmEx of the weight prefix over the sample's Im2Col column matrix, with
// the bias as the epilogue's row shift.
func unpackedConv(c *Conv2D, r float64, x *tensor.Tensor) *tensor.Tensor {
	batch, aIn, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	_, aOut := c.Active(r)
	outH, outW := c.OutShape(h, w)
	spatial, colRows := outH*outW, aIn*c.KH*c.KW
	var ep *tensor.Epilogue
	if c.B != nil {
		ep = &tensor.Epilogue{RowShift: c.B.Value.Data}
	}
	y := tensor.New(batch, aOut, outH, outW)
	col := make([]float64, colRows*spatial)
	for b := 0; b < batch; b++ {
		tensor.Im2Col(x.Data[b*aIn*h*w:], aIn, h, w, c.KH, c.KW, c.Stride, c.Pad, col)
		tensor.GemmEx(aOut, spatial, colRows, c.W.Value.Data, c.In*c.KH*c.KW, col, spatial, y.Data[b*aOut*spatial:], spatial, ep)
	}
	return y
}

// TestConvForwardScratchRecycled pins the training-path satellite: the
// scratch of Conv2D.Forward/Backward comes from pools, so repeated steps stop
// allocating fresh buffers — the im2col column matrices of a strided conv,
// and the padded images and product grids of a same conv's shifted rows.
func TestConvForwardScratchRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	x := tensor.New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ctx := &Context{Training: true}
	same := NewConv2D(3, 4, 3, 3, 1, 1, Fixed(), Fixed(), false, rng)
	geo := same.shiftGeom(tensor.TierExact, 2, 8, 8)
	for _, tc := range []struct {
		name string
		conv *Conv2D
		pool *sync.Pool
		want int
	}{
		// Stride 2: a 27-row column matrix over the 4×4 output.
		{"im2col", NewConv2D(3, 4, 3, 3, 2, 1, Fixed(), Fixed(), false, rng), &im2colPool, 3 * 9 * 4 * 4},
		// Same conv: Forward's buffer, the smaller one, holds the padded
		// image of x and the grid of y's four channels.
		{"shifted rows", same, &padPool, geo.imgLen(3) + 4*geo.n},
	} {
		// After a step the pool must hold a buffer big enough for this
		// layer's scratch — evidence Forward/Backward returned theirs
		// instead of dropping them. A sync.Pool may drop any Put (the race
		// detector drops one in four by design), so a step whose buffer
		// was dropped is retried; one that never recycles fails them all.
		const rounds = 20
		got := 0
		for round := 0; round < rounds && got < tc.want; round++ {
			y := tc.conv.Forward(ctx, x)
			tc.conv.Backward(ctx, y)
			buf := poolGet(tc.pool, 1)
			got = cap(*buf)
			tc.pool.Put(buf)
		}
		if got < tc.want {
			t.Errorf("%s: pooled scratch cap %d after %d steps, want ≥ %d — Forward/Backward did not recycle", tc.name, got, rounds, tc.want)
		}
	}
}
