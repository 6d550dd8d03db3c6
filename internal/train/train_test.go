package train

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

func TestSGDPlainStep(t *testing.T) {
	p := nn.NewParam("w", true, 2)
	p.Value.Data[0], p.Value.Data[1] = 1, 2
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -0.5
	s := NewSGD(0.1, 0, 0)
	s.Step([]*nn.Param{p})
	if math.Abs(p.Value.Data[0]-0.95) > 1e-12 || math.Abs(p.Value.Data[1]-2.05) > 1e-12 {
		t.Fatalf("after step: %v", p.Value.Data)
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("Step must zero the gradient")
	}
}

func TestSGDWeightDecayRespectsFlag(t *testing.T) {
	decayed := nn.NewParam("w", true, 1)
	decayed.Value.Data[0] = 10
	plain := nn.NewParam("b", false, 1)
	plain.Value.Data[0] = 10
	s := NewSGD(0.1, 0, 0.1)
	s.Step([]*nn.Param{decayed, plain})
	if decayed.Value.Data[0] >= 10 {
		t.Fatal("weight decay must shrink decayed params")
	}
	if plain.Value.Data[0] != 10 {
		t.Fatal("weight decay must not touch Decay=false params")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := nn.NewParam("w", true, 1)
	s := NewSGD(1, 0.9, 0)
	p.Grad.Data[0] = 1
	s.Step([]*nn.Param{p}) // v=1, w=-1
	p.Grad.Data[0] = 1
	s.Step([]*nn.Param{p}) // v=1.9, w=-2.9
	if math.Abs(p.Value.Data[0]+2.9) > 1e-12 {
		t.Fatalf("momentum value %v, want -2.9", p.Value.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("w", true, 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-12 || math.Abs(p.Grad.Data[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grads %v", p.Grad.Data)
	}
	// Below the threshold nothing changes.
	ClipGradNorm([]*nn.Param{p}, 10)
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-12 {
		t.Fatal("clip must be a no-op under the threshold")
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := NewStepDecay(1, 10, 5, 8)
	for _, tc := range []struct {
		epoch int
		want  float64
	}{{0, 1}, {4, 1}, {5, 0.1}, {7, 0.1}, {8, 0.01}} {
		if got := s.LR(tc.epoch); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("LR(%d) = %v, want %v", tc.epoch, got, tc.want)
		}
	}
}

func TestMilestonesAt(t *testing.T) {
	ms := MilestonesAt(40, 0.6, 0.85)
	if ms[0] != 24 || ms[1] != 34 {
		t.Fatalf("milestones %v", ms)
	}
}

func TestWarmupStepDecay(t *testing.T) {
	w := NewWarmupStepDecay(NewStepDecay(1, 10, 10), 4)
	if w.LR(0) >= w.LR(3) {
		t.Fatal("warmup must ramp up")
	}
	if w.LR(5) != 1 {
		t.Fatalf("post-warmup LR %v", w.LR(5))
	}
	if w.LR(10) != 0.1 {
		t.Fatalf("post-milestone LR %v", w.LR(10))
	}
}

func TestAdaptiveDecay(t *testing.T) {
	a := NewAdaptiveDecay(20, 4)
	a.Observe(100) // first observation sets the best
	if a.LR(0) != 20 {
		t.Fatal("no decay on first observation")
	}
	a.Observe(90) // improved
	if a.LR(0) != 20 {
		t.Fatal("no decay on improvement")
	}
	a.Observe(95) // regressed → quarter
	if a.LR(0) != 5 {
		t.Fatalf("LR after stall %v, want 5", a.LR(0))
	}
}

func TestAccuracyAndPerplexity(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 1, 0, 3}, 2, 2)
	if Accuracy(logits, []int{0, 1}) != 1 {
		t.Fatal("both rows should be correct")
	}
	if Accuracy(logits, []int{1, 1}) != 0.5 {
		t.Fatal("one of two correct")
	}
	if math.Abs(Perplexity(math.Log(50))-50) > 1e-9 {
		t.Fatal("perplexity of ln(50) nats must be 50")
	}
}

func TestEvaluateAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(nn.NewDense(4, 2, nn.Fixed(), nn.Fixed(), true, rng))
	batches := []Batch{
		{X: tensor.New(3, 4), Labels: []int{0, 1, 0}},
		{X: tensor.New(2, 4), Labels: []int{1, 1}},
	}
	res := Evaluate(model, 1, 0, batches)
	if res.N != 5 {
		t.Fatalf("evaluated %d rows, want 5", res.N)
	}
	if res.Loss <= 0 {
		t.Fatal("loss must be positive for an untrained model")
	}
	if res.ErrorRate() < 0 || res.ErrorRate() > 100 {
		t.Fatalf("error rate %v", res.ErrorRate())
	}
}

func TestInclusionCoefficient(t *testing.T) {
	a := map[int]bool{1: true, 2: true}
	b := map[int]bool{2: true, 3: true, 4: true}
	if got := InclusionCoefficient(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("inclusion %v, want 0.5 (1 of smaller set's 2)", got)
	}
	if InclusionCoefficient(map[int]bool{}, b) != 1 {
		t.Fatal("empty smaller set → coefficient 1 by convention")
	}
}

func TestWrongSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := nn.NewSequential(nn.NewDense(4, 2, nn.Fixed(), nn.Fixed(), true, rng))
	batches := []Batch{{X: tensor.New(4, 4), Labels: []int{0, 1, 0, 1}}}
	wrong := WrongSet(model, 1, 0, batches)
	// Zero input → identical logits per row → one class wins both labels.
	if len(wrong) != 2 {
		t.Fatalf("expected exactly the 2 rows of the losing class, got %d", len(wrong))
	}
}

func TestHistorySeriesAndFinal(t *testing.T) {
	h := NewHistory([]float64{0.5, 1.0})
	h.Append(EpochRecord{Epoch: 0, PerRate: []EvalResult{{Loss: 2}, {Loss: 1}}})
	h.Append(EpochRecord{Epoch: 1, PerRate: []EvalResult{{Loss: 1.5}, {Loss: 0.5}}})
	s := h.Series(1, func(e EvalResult) float64 { return e.Loss })
	if s[0] != 1 || s[1] != 0.5 {
		t.Fatalf("series %v", s)
	}
	if h.Final(0).Loss != 1.5 {
		t.Fatalf("final %v", h.Final(0))
	}
	if _, err := h.RateIndex(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RateIndex(0.75); err == nil {
		t.Fatal("expected error for untracked rate")
	}
}

// sgdFourPass is SGD.Step as four full passes per parameter — decay into
// the gradient, velocity scale, velocity add, weight update — then a
// gradient clear: the oracle of the one-pass Step.
func sgdFourPass(s *SGD, vel map[*nn.Param]*tensor.Tensor, params []*nn.Param) {
	for _, p := range params {
		g := p.Grad
		if s.WeightDecay != 0 && p.Decay {
			g.AddScaled(s.WeightDecay, p.Value)
		}
		if s.Momentum != 0 {
			v, ok := vel[p]
			if !ok {
				v = tensor.New(p.Value.Shape...)
				vel[p] = v
			}
			v.Scale(s.Momentum)
			v.Add(g)
			if s.Nesterov {
				for i := range p.Value.Data {
					p.Value.Data[i] -= s.LR * float64(g.Data[i]+float64(s.Momentum*v.Data[i]))
				}
			} else {
				p.Value.AddScaled(-s.LR, v)
			}
		} else {
			p.Value.AddScaled(-s.LR, g)
		}
		p.ZeroGrad()
	}
}

// TestSGDOnePassMatchesFourPass holds Step bit for bit to the four-pass
// sequence over six steps, with and without momentum, Nesterov and weight
// decay, on parameters with and without Decay; gradients include ±0, and
// weights ±0 and subnormals.
func TestSGDOnePassMatchesFourPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e300}
	for _, momentum := range []float64{0, 0.9} {
		for _, nesterov := range []bool{false, true} {
			for _, wd := range []float64{0, 5e-4} {
				mk := func() []*nn.Param {
					r := rand.New(rand.NewSource(6))
					ps := []*nn.Param{nn.NewParam("w", true, 7, 5), nn.NewParam("b", false, 37)}
					for _, p := range ps {
						for i := range p.Value.Data {
							p.Value.Data[i] = r.NormFloat64()
						}
						copy(p.Value.Data, special)
					}
					return ps
				}
				got, want := mk(), mk()
				s := NewSGD(0.05, momentum, wd)
				s.Nesterov = nesterov
				ref := &SGD{LR: 0.05, Momentum: momentum, WeightDecay: wd, Nesterov: nesterov}
				vel := map[*nn.Param]*tensor.Tensor{}
				for step := 0; step < 6; step++ {
					for k, p := range got {
						for i := range p.Grad.Data {
							v := rng.NormFloat64()
							if i < len(special) {
								v = special[(i+step)%len(special)] / 1e200
							}
							p.Grad.Data[i], want[k].Grad.Data[i] = v, v
						}
					}
					s.Step(got)
					sgdFourPass(ref, vel, want)
					for k, p := range got {
						for i, v := range p.Value.Data {
							if math.Float64bits(v) != math.Float64bits(want[k].Value.Data[i]) {
								t.Fatalf("momentum %v nesterov %v wd %v step %d %s[%d] = %v, four-pass %v",
									momentum, nesterov, wd, step, p.Name, i, v, want[k].Value.Data[i])
							}
						}
						for i, v := range p.Grad.Data {
							if math.Float64bits(v) != 0 {
								t.Fatalf("%s gradient [%d] = %v after Step, want +0", p.Name, i, v)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkSGDStep times one momentum step over VGG13Mini's 74,498
// parameters (held as one weight tensor and one bias-like tensor).
func BenchmarkSGDStep(b *testing.B) {
	params := []*nn.Param{nn.NewParam("w", true, 74000), nn.NewParam("b", false, 498)}
	s := NewSGD(0.01, 0.9, 5e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(params)
	}
}
