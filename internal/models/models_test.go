package models

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"modelslicing/internal/cost"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// assertParamsNear checks a model's full-width parameter count against the
// value the paper reports in Table 3, within tol (relative).
func assertParamsNear(t *testing.T, name string, model nn.Layer, inShape []int, wantM float64, tol float64) {
	t.Helper()
	p, _ := cost.Measure(model, inShape, 1)
	gotM := float64(p.Params) / 1e6
	if math.Abs(gotM-wantM) > tol*wantM {
		t.Fatalf("%s params = %.3fM, paper reports %.2fM (tol %.0f%%)", name, gotM, wantM, tol*100)
	}
}

func TestTable3VGG13Params(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewVGG(VGG13Paper(), rng)
	assertParamsNear(t, "VGG-13", m, []int{3, 32, 32}, 9.42, 0.01)
}

func TestTable3ResNet164Params(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewResNet(ResNet164Paper(), rng)
	assertParamsNear(t, "ResNet-164", m, []int{3, 32, 32}, 1.72, 0.02)
}

func TestTable3ResNet56x2Params(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewResNet(ResNet56x2Paper(), rng)
	assertParamsNear(t, "ResNet-56-2", m, []int{3, 32, 32}, 2.35, 0.02)
}

func TestTable3VGG16Params(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, _ := NewVGG(VGG16Paper(), rng)
	assertParamsNear(t, "VGG-16", m, []int{3, 224, 224}, 138.36, 0.01)
}

func TestTable3ResNet50Params(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewResNet(ResNet50Paper(), rng)
	assertParamsNear(t, "ResNet-50", m, []int{3, 224, 224}, 25.56, 0.02)
}

func TestVGGMiniForwardShapesAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, taps := NewVGG(VGG13Mini(8, NormGroup, 1), rng)
	if len(taps) != 4 {
		t.Fatalf("want 4 stage taps, got %d", len(taps))
	}
	x := tensor.New(2, 3, 16, 16)
	for _, r := range slicing.NewRateList(0.25, 8) {
		y := m.Forward(nn.Eval(r), x)
		if y.Dim(0) != 2 || y.Dim(1) != 10 {
			t.Fatalf("rate %v: output %v", r, y.Shape)
		}
		if !y.AllFinite() {
			t.Fatalf("rate %v: non-finite output", r)
		}
	}
}

func TestVGGMiniGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := NewVGG(VGG13Mini(4, NormGroup, 1), rng)
	x := tensor.New(1, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if err := nn.CheckGradients(m, nn.Train(0.5, rng), x, nil, 8); err != nil {
		t.Fatal(err)
	}
}

func TestResNetMiniForwardAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, taps := NewResNet(ResNetMini(8, NormGroup, 1), rng)
	if len(taps) != 3 {
		t.Fatalf("want 3 stage taps, got %d", len(taps))
	}
	x := tensor.New(2, 3, 16, 16)
	for _, r := range slicing.NewRateList(0.25, 8) {
		y := m.Forward(nn.Eval(r), x)
		if y.Dim(1) != 10 || !y.AllFinite() {
			t.Fatalf("rate %v: bad output %v", r, y.Shape)
		}
	}
}

func TestResNetMiniGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, _ := NewResNet(ResNetMini(4, NormGroup, 1), rng)
	x := tensor.New(1, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range []float64{1.0, 0.5} {
		if err := nn.CheckGradients(m, nn.Train(r, rng), x, nil, 6); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

func TestResNetExtractMatchesSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, _ := NewResNet(ResNetMini(8, NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	x := tensor.New(2, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, r := range rates {
		want := slicing.Predict(m, rates, r, x)
		got := slicing.Extract(m, r, rates).Forward(nn.Eval(1), x)
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-9 {
				t.Fatalf("rate %v: extracted ResNet differs", r)
			}
		}
	}
}

func TestNNLMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewNNLM(NNLMMini(50, 8), rng)
	ids := tensor.New(4, 3) // T=4, B=3
	for i := range ids.Data {
		ids.Data[i] = float64(rng.Intn(50))
	}
	for _, r := range slicing.NewRateList(0.25, 8) {
		y := m.Forward(nn.Eval(r), ids)
		if y.Dim(0) != 12 || y.Dim(1) != 50 {
			t.Fatalf("rate %v: NNLM output %v, want [12 50]", r, y.Shape)
		}
	}
}

func TestNNLMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := NNLMMini(20, 4)
	cfg.Dropout = 0 // deterministic for gradient checking
	cfg.Embed, cfg.Hidden = 8, 8
	m := NewNNLM(cfg, rng)
	ids := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	for _, r := range []float64{1.0, 0.5} {
		if err := nn.CheckGradients(m, nn.Train(r, rng), ids, nil, 24); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

func TestNNLMParamShapePaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewNNLM(NNLMPaper(), rng)
	p, out := cost.Measure(m, []int{35}, 1)
	if out[1] != 10000 {
		t.Fatalf("decoder output %v", out)
	}
	// Embedding 6.5M + LSTM1 4*(650*640+640*640+640) + LSTM2
	// 4*(640*640+640*640+640) + decoder 640*10000+10000 ≈ 19.9M.
	gotM := float64(p.Params) / 1e6
	if gotM < 19 || gotM > 21 {
		t.Fatalf("paper-scale NNLM params %.2fM, want ≈19.9M", gotM)
	}
}

func TestMLPBuildsAndSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMLP(12, []int{32, 32}, 4, 8, rng)
	x := tensor.New(3, 12)
	y := m.Forward(nn.Eval(0.375), x)
	if y.Dim(1) != 4 {
		t.Fatalf("MLP output %v", y.Shape)
	}
}

func TestScaleWidthsHelpers(t *testing.T) {
	v := VGG13Paper().ScaleWidths(1, 2)
	if v.StageWidths[0] != 32 || v.StageWidths[3] != 256 {
		t.Fatalf("scaled VGG widths %v", v.StageWidths)
	}
	r := ResNet164Paper().ScaleWidths(3, 4)
	if r.StageWidths[0] != 12 || r.StemWidth != 12 {
		t.Fatalf("scaled ResNet widths %v stem %d", r.StageWidths, r.StemWidth)
	}
	n := NNLMPaper().ScaleWidths(1, 2)
	if n.Hidden != 320 || n.Embed != 650 {
		t.Fatalf("scaled NNLM %+v", n)
	}
}

func TestSwitchableNormVGGBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, _ := NewVGG(VGG13Mini(4, NormSwitchable, 4), rng)
	x := tensor.New(2, 3, 16, 16)
	rates := slicing.NewRateList(0.25, 4)
	for i, r := range rates {
		ctx := &nn.Context{Training: false, Rate: r, WidthIdx: i}
		y := m.Forward(ctx, x)
		if y.Dim(1) != 10 {
			t.Fatalf("switchable VGG output %v", y.Shape)
		}
	}
}

func TestNNLMRecurrentCellVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, cell := range []string{"lstm", "gru", "rnn"} {
		cfg := NNLMMini(30, 4)
		cfg.Cell = cell
		cfg.Embed, cfg.Hidden = 8, 8
		m := NewNNLM(cfg, rng)
		ids := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
		for _, r := range []float64{1.0, 0.5} {
			y := m.Forward(nn.Eval(r), ids)
			if y.Dim(0) != 4 || y.Dim(1) != 30 || !y.AllFinite() {
				t.Fatalf("%s at rate %v: output %v", cell, r, y.Shape)
			}
		}
		// Extraction must support every cell type.
		rates := slicing.NewRateList(0.25, 4)
		want := slicing.Predict(m, rates, 0.5, ids)
		got := slicing.Extract(m, 0.5, rates).Forward(nn.Eval(1), ids)
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-9 {
				t.Fatalf("%s: extraction differs", cell)
			}
		}
	}
}

func TestNNLMRejectsUnknownCell(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := NNLMMini(10, 4)
	cfg.Cell = "transformer"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown cell")
		}
	}()
	NewNNLM(cfg, rng)
}

// TestVGGSharedInferAllocFree is the whole-model allocation gate of the
// serving path: once packs and arena are warm, a batch-8 VGG13Mini pass
// through Shared.Infer allocates nothing at any rate. Mallocs are read from
// runtime.ReadMemStats rather than testing.AllocsPerRun, which pins
// GOMAXPROCS to 1 and so cannot see allocations that only happen when the
// engine has more than one P to spread work over.
func TestVGGSharedInferAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	rng := rand.New(rand.NewSource(18))
	m, _ := NewVGG(VGG13Mini(4, NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	shared := slicing.NewShared(m, rates)
	x := tensor.New(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	arena := tensor.NewArena()
	pass := func(r float64) {
		shared.Infer(r, x, arena)
		arena.Reset()
	}
	for _, r := range rates {
		pass(r)
		pass(r)
	}
	const passes = 20
	var before, after runtime.MemStats
	for _, r := range rates {
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			pass(r)
		}
		runtime.ReadMemStats(&after)
		if mallocs := after.Mallocs - before.Mallocs; mallocs >= passes {
			t.Errorf("r=%v: %d mallocs over %d passes (GOMAXPROCS=%d), want fewer than one per pass",
				r, mallocs, passes, runtime.GOMAXPROCS(0))
		}
	}
}
