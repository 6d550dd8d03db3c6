package nn_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

// TestParallelForHelpersMatchSerial trains VGG13Mini-GN for five R-min-max
// steps at GOMAXPROCS=2 twice: once with Conv2D's regions on parallelFor's
// helpers, once with the helpers held so every region runs its parts in
// order on its caller. Every loss and every parameter must keep its bits:
// the helpers change who runs a part, never its span or the order of its
// partial sums.
func TestParallelForHelpersMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rates := slicing.NewRateList(0.25, 4)
	rng := rand.New(rand.NewSource(47))
	x := tensor.New(32, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	batch := train.Batch{X: x, Labels: labels}
	run := func() (losses []float64, params []*nn.Param) {
		rng := rand.New(rand.NewSource(48))
		m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
		tr := slicing.NewTrainer(m, rates, slicing.NewRMinMax(rates), train.NewSGD(0.05, 0.9, 5e-4), rng)
		for step := 0; step < 5; step++ {
			losses = append(losses, tr.Step(batch).Losses...)
		}
		return losses, m.Params()
	}
	helped, helpedParams := run()
	release := nn.HoldHelpers()
	serial, serialParams := run()
	release()
	for i, v := range serial {
		if math.Float64bits(helped[i]) != math.Float64bits(v) {
			t.Fatalf("loss %d on the helpers %v, serial %v", i, helped[i], v)
		}
	}
	for k, p := range serialParams {
		for i, v := range p.Value.Data {
			if got := helpedParams[k].Value.Data[i]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s[%d] on the helpers %v, serial %v", p.Name, i, got, v)
			}
		}
	}
}
