package models

import (
	"math"
	"math/rand"
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

// TestSharedInferArenaBitIdentical is the ping-pong oracle: a pass drawing
// from an arena — warm, so every GetUninit buffer holds another layer's data —
// gives the nil-arena pass's bits at every rate, through residual blocks
// (nested Sequentials) and through top-level layers whose output views their
// input (Flatten, TimeFlatten, eval Dropout). The caller's batch, taken from
// the same arena before each pass, and every earlier pass's output survive
// until Reset.
func TestSharedInferArenaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	resnet, _ := NewResNet(ResNetMini(4, NormGroup, 1), rng)
	fc, _ := NewVGG(VGGConfig{
		Name: "vgg-fc", InChannels: 3, InputHW: 8,
		StageWidths: []int{8, 16}, StageBlocks: []int{1, 1}, PoolAfter: []bool{true, true},
		FCDims: []int{32, 32}, Classes: 10, Groups: 4, Norm: NormGroup, NumWidths: 1,
		Dropout: 0.5,
	}, rng)
	nnlm := NewNNLM(NNLMMini(50, 4), rng)
	ids := tensor.New(5, 3)
	for i := range ids.Data {
		ids.Data[i] = float64(rng.Intn(50))
	}
	cases := []struct {
		name  string
		model nn.Layer
		x     *tensor.Tensor
	}{
		{"resnet-mini", resnet, randomInput(rng, 4, 3, 16, 16)},
		{"vgg-flatten-dropout", fc, randomInput(rng, 4, 3, 8, 8)},
		{"nnlm-timeflatten-dropout", nnlm, ids},
	}
	rates := slicing.NewRateList(0.25, 4)
	for _, c := range cases {
		shared := slicing.NewShared(c.model, rates)
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
					t.Fatalf("%s r=%v cycle %d: the pass overwrote the caller's batch", c.name, r, cycle)
				}
			}
			for i, r := range rates {
				if !sameBits(outs[i].Data, want[i]) {
					t.Fatalf("%s r=%v cycle %d: arena pass differs from the nil-arena pass (or a later pass overwrote it)",
						c.name, r, cycle)
				}
			}
			arena.Reset()
		}
	}
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
