package models

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// TestVGGSharedInferFootprint is the memory gate of the ping-pong arena: a
// served pass keeps two layers' activations live, not all twenty. The bump
// arena this replaced held 5.76 MB for this pass.
func TestVGGSharedInferFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m, _ := NewVGG(VGG13Mini(4, NormGroup, 1), rng)
	shared := slicing.NewShared(m, slicing.NewRateList(0.25, 4))
	x := randomInput(rng, 16, 3, 16, 16)
	arena := tensor.NewArena()
	for i := 0; i < 2; i++ {
		shared.Infer(1, x, arena)
		arena.Reset()
	}
	const limit = 1.5e6
	if got := 8 * arena.Footprint(); got > limit {
		t.Fatalf("batch-16 r=1 pass holds %d arena bytes, want ≤ %.0f", got, limit)
	}
}

// TestSharedInferChunkArenaBound is the memory gate of the chunked trunk: a
// served pass holds the batch's input and trunk output plus one chunk's
// activations, so a batch-64 pass at r = 1 needs no more arena than a pass of
// one chunk of C samples plus 64−C more input rows and a trunk output of its
// own (a C-sample pass is one chunk, whose trunk output is an ordinary step).
// An unchunked pass grows with the batch and fails it: 3.8 MB for VGG13Mini
// against a bound of 1.1 MB.
func TestSharedInferChunkArenaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vgg, _ := NewVGG(VGG13Mini(4, NormGroup, 1), rng)
	resnet, _ := NewResNet(ResNetMini(4, NormGroup, 1), rng)
	const batch = 64
	for _, tc := range []struct {
		name  string
		model *nn.Sequential
	}{{"vgg13mini", vgg}, {"resnet-mini", resnet}} {
		shared := slicing.NewShared(tc.model, slicing.NewRateList(0.25, 4))
		c := trunkChunk(tc.model, 1, 3, 16, 16)
		one, all := chunkFootprint(shared, c), chunkFootprint(shared, batch)
		in, out := 3*16*16, trunkOut(tc.model, 3, 16, 16)
		if bound := one + (batch-c)*in + batch*out; all > bound {
			t.Fatalf("%s: a batch-%d pass at r=1 holds %d arena elements, want ≤ %d: %d for one %d-sample chunk, plus %d input and %d trunk output rows",
				tc.name, batch, all, bound, one, c, batch-c, batch)
		}
	}
}

// chunkFootprint is the arena footprint, in elements, of a served pass at
// r = 1 over a batch of n samples that the caller takes from the arena, as a
// server's worker does.
func chunkFootprint(shared *slicing.Shared, n int) int {
	x := randomInput(rand.New(rand.NewSource(22)), n, 3, 16, 16)
	arena := tensor.NewArena()
	for i := 0; i < 2; i++ {
		batch := arena.GetUninit(x.Shape...)
		copy(batch.Data, x.Data)
		shared.Infer(1, batch, arena)
		arena.Reset()
	}
	return arena.Footprint()
}

// trunkOut is the per-sample size of model's output at its global average
// pool at r = 1.
func trunkOut(model *nn.Sequential, sample ...int) int {
	x := tensor.New(append([]int{1}, sample...)...)
	for _, l := range model.Layers {
		if x = l.Infer(nn.Eval(1), x); x.Rank() == 2 {
			break
		}
	}
	return x.Size()
}

// TestSharedInferArenaBitIdentical is the ping-pong oracle: a pass drawing
// from an arena — warm, so every GetUninit buffer holds another layer's data —
// gives the nil-arena pass's bits at every rate and on both tiers, through
// residual blocks (nested Sequentials) and through top-level layers whose
// output views their input (Flatten, TimeFlatten, eval Dropout). The caller's
// batch, taken from the same arena before each pass, and every earlier
// pass's output survive until Reset. The CNNs also run at every batch that
// crosses a rate's chunk size, where the arena pass serves the trunk a chunk
// at a time and the nil-arena pass serves it whole; vgg-flatten-dropout's
// trunk ends at a rank-4 output.
func TestSharedInferArenaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	resnet, _ := NewResNet(ResNetMini(4, NormGroup, 1), rng)
	vgg, _ := NewVGG(VGG13Mini(4, NormGroup, 1), rng)
	fc, _ := NewVGG(VGGConfig{
		Name: "vgg-fc", InChannels: 3, InputHW: 8,
		StageWidths: []int{8, 16}, StageBlocks: []int{1, 1}, PoolAfter: []bool{true, true},
		FCDims: []int{32, 32}, Classes: 10, Groups: 4, Norm: NormGroup, NumWidths: 1,
		Dropout: 0.5,
	}, rng)
	mini := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(8, 8, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	nnlm := NewNNLM(NNLMMini(50, 4), rng)
	ids := tensor.New(5, 3)
	for i := range ids.Data {
		ids.Data[i] = float64(rng.Intn(50))
	}
	type testCase struct {
		name  string
		model nn.Layer
		x     *tensor.Tensor
	}
	cases := []testCase{
		{"resnet-mini", resnet, randomInput(rng, 4, 3, 16, 16)},
		{"vgg-flatten-dropout", fc, randomInput(rng, 4, 3, 8, 8)},
		{"nnlm-timeflatten-dropout", nnlm, ids},
	}
	rates := slicing.NewRateList(0.25, 4)
	for _, c := range []struct {
		name  string
		model *nn.Sequential
		hw    int
	}{{"minicnn", mini, 8}, {"vgg13mini", vgg, 16}, {"resnet-mini", resnet, 16}, {"vgg-flatten-dropout", fc, 8}} {
		for _, batch := range chunkBatches(c.model, rates, 3, c.hw, c.hw) {
			cases = append(cases, testCase{fmt.Sprintf("%s batch %d", c.name, batch), c.model, randomInput(rng, batch, 3, c.hw, c.hw)})
		}
	}
	for _, c := range cases {
		shared := slicing.NewShared(c.model, rates)
		for _, tier := range []tensor.EngineTier{tensor.TierExact, tensor.TierFMA} {
			shared.SetTier(tier)
			want := make([][]float64, len(rates))
			for i, r := range rates {
				want[i] = shared.Infer(r, c.x, nil).Data
			}
			arena := tensor.NewArena()
			for cycle := 0; cycle < 3; cycle++ {
				outs := make([]*tensor.Tensor, len(rates))
				for i, r := range rates {
					batch := arena.GetUninit(c.x.Shape...)
					copy(batch.Data, c.x.Data)
					outs[i] = shared.Infer(r, batch, arena)
					if !sameBits(batch.Data, c.x.Data) {
						t.Fatalf("%s tier %v r=%v cycle %d: the pass overwrote the caller's batch", c.name, tier, r, cycle)
					}
				}
				for i, r := range rates {
					if !sameBits(outs[i].Data, want[i]) {
						t.Fatalf("%s tier %v r=%v cycle %d: arena pass differs from the nil-arena pass (or a later pass overwrote it)",
							c.name, tier, r, cycle)
					}
				}
				arena.Reset()
			}
		}
	}
}

// chunkBatches are the batches that cross the chunk size of model's trunk at
// any of rates (trunkChunk): one and two samples, a chunk less one, a chunk
// and one more, and 17 and 50, which take several chunks and a short last one.
func chunkBatches(model *nn.Sequential, rates slicing.RateList, sample ...int) []int {
	var bs []int
	for _, r := range rates {
		c := trunkChunk(model, r, sample...)
		for _, b := range []int{1, 2, c - 1, c, c + 1, 17, 50} {
			if b > 0 && !slices.Contains(bs, b) {
				bs = append(bs, b)
			}
		}
	}
	return bs
}

// trunkChunk is the number of samples per chunk in which a served pass takes
// model's trunk at rate r: nn.TrunkChunkBytes over its largest per-sample
// activation, measured by walking one sample of the given shape through the
// layers up to the global average pool, or the first Flatten.
func trunkChunk(model *nn.Sequential, r float64, sample ...int) int {
	x := tensor.New(append([]int{1}, sample...)...)
	ctx, act := nn.Eval(r), 0
	for _, l := range model.Layers {
		if _, flat := l.(*nn.Flatten); flat {
			break
		}
		x = l.Infer(ctx, x)
		act = max(act, x.Size())
		if _, gap := l.(*nn.GlobalAvgPool); gap {
			break
		}
	}
	return max(1, nn.TrunkChunkBytes/(8*act))
}

func randomInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
