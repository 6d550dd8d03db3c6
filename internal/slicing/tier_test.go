package slicing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// End-to-end accuracy gate for the fma tier, pinned against the exact tier
// (the parent's unfused inference pass, Predict) at every deployable rate.
// Measured deviations on the miniCNN sit around 1e-15; the gate leaves
// orders of headroom while still catching a broken accuracy budget.
const fmaSharedTol = 1e-9

// TestSharedTierAccuracyGates pins the tier contract end to end: a Shared
// serving on the fma tier must stay within the tier's pinned tolerance of the
// exact engine at every deployable rate.
func TestSharedTierAccuracyGates(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	rates := NewRateList(0.25, 4)
	model := miniCNN(rng)

	for _, tc := range []struct {
		tier tensor.EngineTier
		tol  float64
	}{{tensor.TierFMA, fmaSharedTol}} {
		fast := NewShared(model, rates)
		fast.SetTier(tc.tier)
		arenaF := tensor.NewArena()
		for _, r := range rates {
			x := randInput(rng, 4, 3, 8, 8)
			want := Predict(model, rates, r, x)
			got := fast.Infer(r, x, arenaF)
			if !got.SameShape(want) {
				t.Fatalf("tier %v rate %v: shape %v vs %v", tc.tier, r, got.Shape, want.Shape)
			}
			maxD, maxW := 0.0, 0.0
			for i := range want.Data {
				maxD = math.Max(maxD, math.Abs(got.Data[i]-want.Data[i]))
				maxW = math.Max(maxW, math.Abs(want.Data[i]))
			}
			if maxD > tc.tol*math.Max(maxW, 1) {
				t.Fatalf("tier %v rate %v: rel error %.3g exceeds the %g gate",
					tc.tier, r, maxD/math.Max(maxW, 1), tc.tol)
			}
			arenaF.Reset()
		}
		st := fast.Stats()
		if st.Tier != tc.tier {
			t.Fatalf("Stats().Tier = %v, want %v", st.Tier, tc.tier)
		}
	}
}

// TestSharedTierPackRace hammers the per-width pack-build race: workers
// serving both tiers hit a fresh model simultaneously, so first touches of
// every width race into the builders (run with -race in CI). The MLP's hidden
// Dense packs every width; miniCNN's convs read the parent's weights in place
// from every worker on both tiers. Every tier is deterministic, so all
// workers must agree bit-for-bit per (tier, rate).
func TestSharedTierPackRace(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	rates := NewRateList(0.25, 4)
	for _, tc := range []struct {
		name  string
		model nn.Layer
		shape []int
	}{
		{"miniCNN", miniCNN(rng), []int{2, 3, 8, 8}},
		{"packedMLP", packedMLP(rng), []int{mlpBatch, 128}},
	} {
		tiers := []tensor.EngineTier{tensor.TierExact, tensor.TierFMA}
		views := make([]*Shared, len(tiers))
		for i, tier := range tiers {
			views[i] = NewShared(tc.model, rates) // same model: the caches are shared
			views[i].SetTier(tier)
		}
		inputs := make([]*tensor.Tensor, len(rates))
		for i := range rates {
			inputs[i] = randInput(rng, tc.shape...)
		}

		const workers = 9
		outs := make([][]*tensor.Tensor, workers) // worker → tier*rate
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				arena := tensor.NewArena()
				outs[w] = make([]*tensor.Tensor, len(tiers)*len(rates))
				// Stagger tier order across workers so both tiers race into
				// the same width's builder.
				for ti := range tiers {
					v := views[(w+ti)%len(tiers)]
					for ri, r := range rates {
						y := v.Infer(r, inputs[ri], arena).Clone()
						outs[w][(w+ti)%len(tiers)*len(rates)+ri] = y
						arena.Reset()
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			for k := range outs[0] {
				a, b := outs[0][k], outs[w][k]
				for i := range a.Data {
					if a.Data[i] != b.Data[i] {
						t.Fatalf("%s: worker %d diverged from worker 0 on slot %d", tc.name, w, k)
					}
				}
			}
		}
	}
}

// TestSharedTierZeroAlloc pins the steady-state serving contract per tier:
// once packs are warm, Infer allocates nothing at any rate on any tier.
func TestSharedTierZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(702))
	rates := NewRateList(0.25, 4)
	shared := NewShared(miniCNN(rng), rates)
	arena := tensor.NewArena()
	for _, tier := range []tensor.EngineTier{tensor.TierExact, tensor.TierFMA} {
		shared.SetTier(tier)
		for _, r := range rates {
			x := randInput(rng, 4, 3, 8, 8)
			pass := func() {
				shared.Infer(r, x, arena)
				arena.Reset()
			}
			pass() // warm: lazy pack build and arena growth allocate
			pass()
			if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
				t.Fatalf("tier %v rate %v: %v allocs per pass, want 0", tier, r, allocs)
			}
		}
	}
}
