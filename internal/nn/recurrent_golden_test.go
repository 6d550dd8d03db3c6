package nn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// recurrentGolden pins, for every recurrent cell × Rescale × slice rate, an
// FNV-64a hash of the Forward output, the Backward input gradient, every
// parameter gradient and the Params() names and shapes. A change to how the
// recurrent layers are organised must reproduce these bits exactly; only a
// deliberate change to their arithmetic may move a constant.
var recurrentGolden = map[string]uint64{
	"LSTM/rescale=false/r=0.25": 0x43d2a96884dbe472,
	"LSTM/rescale=false/r=0.5":  0x6a15ccf70d520789,
	"LSTM/rescale=false/r=1":    0xc721d286cd6a82eb,
	"LSTM/rescale=true/r=0.25":  0x59008c135d901176,
	"LSTM/rescale=true/r=0.5":   0x3428bf32825eb32d,
	"LSTM/rescale=true/r=1":     0xc721d286cd6a82eb,
	"GRU/rescale=false/r=0.25":  0x0d6a3f0fbb477979,
	"GRU/rescale=false/r=0.5":   0xe9801d7b0c3da05a,
	"GRU/rescale=false/r=1":     0x311e437cde454c31,
	"GRU/rescale=true/r=0.25":   0xb7c086a0deaf7e3a,
	"GRU/rescale=true/r=0.5":    0xb532562009c4c2e8,
	"GRU/rescale=true/r=1":      0x311e437cde454c31,
	"RNN/rescale=false/r=0.25":  0xbc709f48eed01e37,
	"RNN/rescale=false/r=0.5":   0x6b8c5aa5512c6def,
	"RNN/rescale=false/r=1":     0x2c1df66031f659fb,
	"RNN/rescale=true/r=0.25":   0x6007cef5708d5963,
	"RNN/rescale=true/r=0.5":    0x88a026a9fc15afe9,
	"RNN/rescale=true/r=1":      0x2c1df66031f659fb,
}

// recurrentGoldenHash runs one Forward/Backward pair and hashes its results.
func recurrentGoldenHash(l Layer, ctx *Context, x, dy *tensor.Tensor) uint64 {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		put(uint64(len(xs)))
		for _, v := range xs {
			put(math.Float64bits(v))
		}
	}
	floats(l.Forward(ctx, x).Data)
	floats(l.Backward(ctx, dy).Data)
	for _, p := range l.Params() {
		h.Write([]byte(p.Name))
		put(uint64(len(p.Value.Shape)))
		for _, d := range p.Value.Shape {
			put(uint64(d))
		}
		floats(p.Grad().Data)
	}
	return h.Sum64()
}

func TestRecurrentGolden(t *testing.T) {
	cells := []struct {
		name  string
		build func(rescale bool, rng *rand.Rand) Layer
	}{
		{"LSTM", func(rs bool, rng *rand.Rand) Layer { return NewLSTM(8, 12, Sliced(4), Sliced(4), rs, rng) }},
		{"GRU", func(rs bool, rng *rand.Rand) Layer { return NewGRU(8, 12, Sliced(4), Sliced(4), rs, rng) }},
		{"RNN", func(rs bool, rng *rand.Rand) Layer { return NewRNN(8, 12, Sliced(4), Sliced(4), rs, rng) }},
	}
	var missing string
	for _, c := range cells {
		for _, rescale := range []bool{false, true} {
			for _, r := range []float64{0.25, 0.5, 1} {
				key := fmt.Sprintf("%s/rescale=%v/r=%v", c.name, rescale, r)
				rng := rand.New(rand.NewSource(70))
				l := c.build(rescale, rng)
				aIn, aH := l.(interface{ Active(float64) (int, int) }).Active(r)
				x := randTensor(rng, 4, 3, aIn)
				dy := randTensor(rng, 4, 3, aH)
				got := recurrentGoldenHash(l, Train(r, rng), x, dy)
				// The same pair on an arena, twice (the second pass on a
				// grown slab), must give the same bits.
				arena := tensor.NewArena()
				for pass := 0; pass < 2; pass++ {
					ctx := &Context{Training: true, Rate: r, RNG: rng, Arena: arena}
					if a := recurrentGoldenHash(l, ctx, x, dy); a != got {
						t.Errorf("%s arena pass %d: hash %#x, heap %#x", key, pass, a, got)
					}
					arena.Reset()
				}
				if want, ok := recurrentGolden[key]; !ok || want != got {
					t.Errorf("%s: hash %#x, want %#x", key, got, want)
					missing += fmt.Sprintf("\t%q: %#x,\n", key, got)
				}
			}
		}
	}
	if missing != "" {
		t.Logf("observed hashes:\n%s", missing)
	}
}
