package cost

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
)

func TestDenseCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense(10, 20, nn.Fixed(), nn.Fixed(), true, rng)
	p, out := Measure(d, []int{10}, 1)
	if p.MACs != 200 {
		t.Fatalf("dense MACs %d, want 200", p.MACs)
	}
	if p.Params != 220 {
		t.Fatalf("dense params %d, want 220", p.Params)
	}
	if len(out) != 1 || out[0] != 20 {
		t.Fatalf("dense out shape %v", out)
	}
}

func TestConvCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := nn.NewConv2D(3, 16, 3, 3, 1, 1, nn.Fixed(), nn.Fixed(), false, rng)
	p, out := Measure(c, []int{3, 32, 32}, 1)
	want := int64(9 * 3 * 16 * 32 * 32)
	if p.MACs != want {
		t.Fatalf("conv MACs %d, want %d", p.MACs, want)
	}
	if p.Params != 3*16*9 {
		t.Fatalf("conv params %d", p.Params)
	}
	if out[0] != 16 || out[1] != 32 || out[2] != 32 {
		t.Fatalf("conv out shape %v", out)
	}
}

func TestQuadraticCostInRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// A deep stack sliced on both sides everywhere in the middle: cost must
	// scale ≈ r² (Equation 3's premise).
	model := nn.NewSequential(
		nn.NewConv2D(16, 16, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewConv2D(16, 16, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewConv2D(16, 16, 3, 3, 1, 1, nn.Sliced(4), nn.Sliced(4), false, rng),
	)
	for _, r := range []float64{0.25, 0.5, 0.75, 1.0} {
		got := Ratio(model, []int{16, 8, 8}, r)
		if math.Abs(got-r*r) > 1e-9 {
			t.Fatalf("cost ratio at %v = %v, want %v", r, got, r*r)
		}
	}
}

func TestTable2CtColumn(t *testing.T) {
	// The paper's Ct row: 100, 76.56, 56.25, 39.06, 25.00, 14.06, 6.25 (%)
	// for rates 1.0 … 0.25 — exactly r² on a fully sliced stack.
	rng := rand.New(rand.NewSource(4))
	model := nn.NewSequential(
		nn.NewDense(64, 64, nn.Sliced(16), nn.Sliced(16), false, rng),
	)
	rates := []float64{1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25}
	want := []float64{100, 76.5625, 56.25, 39.0625, 25, 14.0625, 6.25}
	for i, r := range rates {
		got := 100 * Ratio(model, []int{64}, r)
		if math.Abs(got-want[i]) > 1e-6 {
			t.Fatalf("Ct(%v) = %v%%, want %v%%", r, got, want[i])
		}
	}
}

func TestLSTMCostScalesWithSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := nn.NewLSTM(32, 64, nn.Fixed(), nn.Fixed(), false, rng)
	p1, _ := Measure(l, []int{10, 32}, 1)
	p2, _ := Measure(l, []int{20, 32}, 1)
	if p2.MACs != 2*p1.MACs {
		t.Fatalf("LSTM MACs must scale linearly with T: %d vs %d", p1.MACs, p2.MACs)
	}
	wantStep := int64(4 * (32*64 + 64*64))
	if p1.MACs != 10*wantStep {
		t.Fatalf("LSTM MACs %d, want %d", p1.MACs, 10*wantStep)
	}
	if p1.Params != 4*(32*64+64*64+64) {
		t.Fatalf("LSTM params %d", p1.Params)
	}
}

// TestRecurrentCostMatchesExtract: at every rate an LSTM costs what its
// extracted fixed-width copy holds — its parameters, and per step one MAC
// per Wx and Wh weight.
func TestRecurrentCostMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, rescale := range []bool{false, true} {
		l := nn.NewLSTM(16, 32, nn.Sliced(4), nn.Sliced(4), rescale, rng)
		for _, r := range []float64{0.25, 0.5, 1} {
			p, _ := Measure(l, []int{10, 16}, r)
			var params, weights int64
			for i, q := range slicing.Extract(l, r, nil).Params() {
				params += int64(q.Value.Size())
				if i < 2 { // Wx, Wh
					weights += int64(q.Value.Size())
				}
			}
			if p.Params != params || p.MACs != 10*weights {
				t.Errorf("rescale=%v r=%v: params %d MACs %d, extracted copy holds %d params and %d weights a step",
					rescale, r, p.Params, p.MACs, params, weights)
			}
		}
	}
}

func TestEmbeddingAndPipelineShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	model := nn.NewSequential(
		nn.NewEmbedding(100, 16, rng),
		nn.NewLSTM(16, 32, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewTimeFlatten(),
		nn.NewDense(32, 100, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	p, out := Measure(model, []int{10}, 1)
	if len(out) != 2 || out[0] != 10 || out[1] != 100 {
		t.Fatalf("pipeline out shape %v", out)
	}
	if p.Params <= 100*16 {
		t.Fatal("params must include embedding plus LSTM and decoder")
	}
	// At rate 0.5 the decoder input and LSTM hidden shrink; embedding does not.
	pHalf, _ := Measure(model, []int{10}, 0.5)
	if pHalf.Params >= p.Params {
		t.Fatal("sliced params must shrink")
	}
	if pHalf.MACs >= p.MACs {
		t.Fatal("sliced MACs must shrink")
	}
}

func TestPoolAndNormCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := nn.NewSequential(
		nn.NewConv2D(3, 8, 3, 3, 1, 1, nn.Fixed(), nn.Sliced(4), false, rng),
		nn.NewGroupNorm(8, 4, nn.Sliced(4), 1e-5),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewGlobalAvgPool(),
		nn.NewDense(8, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	p, out := Measure(model, []int{3, 8, 8}, 1)
	if len(out) != 1 || out[0] != 4 {
		t.Fatalf("out shape %v", out)
	}
	// GN contributes 16 params; dense 8*4+4; conv 3*8*9.
	want := int64(16 + 36 + 216)
	if p.Params != want {
		t.Fatalf("params %d, want %d", p.Params, want)
	}
}

func TestParamRatioQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := nn.NewSequential(
		nn.NewDense(32, 32, nn.Sliced(4), nn.Sliced(4), false, rng),
		nn.NewDense(32, 32, nn.Sliced(4), nn.Sliced(4), false, rng),
	)
	full, _ := Measure(model, []int{32}, 1)
	half, _ := Measure(model, []int{32}, 0.5)
	if got := float64(half.Params) / float64(full.Params); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("param ratio %v, want 0.25", got)
	}
}
