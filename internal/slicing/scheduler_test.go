package slicing

import (
	"math"
	"math/rand"
	"testing"
)

func TestFixedScheduler(t *testing.T) {
	s := Fixed{Rate: 0.5}
	got := s.Next(nil)
	if len(got) != 1 || got[0] != 0.5 {
		t.Fatalf("Fixed.Next = %v", got)
	}
}

func TestStaticSchedulerReturnsAll(t *testing.T) {
	rates := NewRateList(0.25, 4)
	s := Static{Rates: rates}
	got := s.Next(nil)
	if len(got) != 4 {
		t.Fatalf("Static.Next = %v", got)
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if rates[0] == 99 {
		t.Fatal("Static.Next must not alias the rate list")
	}
}

func TestRandomWeightedEmpiricalDistribution(t *testing.T) {
	rates := NewRateList(0.25, 4)
	weights := []float64{0.25, 0.125, 0.125, 0.5} // order: 0.25,0.5,0.75,1.0
	s := NewRandomWeighted(rates, weights, 1)
	rng := rand.New(rand.NewSource(42))
	counts := map[float64]int{}
	n := 40000
	for i := 0; i < n; i++ {
		for _, r := range s.Next(rng) {
			counts[r]++
		}
	}
	for i, r := range rates {
		got := float64(counts[r]) / float64(n)
		if math.Abs(got-weights[i]) > 0.01 {
			t.Fatalf("rate %v sampled with freq %v, want %v", r, got, weights[i])
		}
	}
}

func TestRandomUniformK(t *testing.T) {
	rates := NewRateList(0.25, 4)
	s := NewRandomUniform(rates, 3)
	rng := rand.New(rand.NewSource(1))
	got := s.Next(rng)
	if len(got) != 3 {
		t.Fatalf("R-uniform-3 returned %d rates", len(got))
	}
	if s.Name() != "R-uniform-3" {
		t.Fatalf("name %q", s.Name())
	}
}

func TestRandomStaticAlwaysIncludesPinned(t *testing.T) {
	rates := NewRateList(0.25, 4)
	rng := rand.New(rand.NewSource(2))
	for name, s := range map[string]*RandomStatic{
		"R-min":     NewRMin(rates),
		"R-max":     NewRMax(rates),
		"R-min-max": NewRMinMax(rates),
	} {
		for i := 0; i < 100; i++ {
			got := s.Next(rng)
			switch name {
			case "R-min":
				if got[0] != 0.25 || len(got) != 2 {
					t.Fatalf("%s: %v", name, got)
				}
			case "R-max":
				if got[0] != 1.0 || len(got) != 2 {
					t.Fatalf("%s: %v", name, got)
				}
			case "R-min-max":
				if got[0] != 0.25 || got[1] != 1.0 || len(got) != 3 {
					t.Fatalf("%s: %v", name, got)
				}
			}
			// Sampled rates must come from the pool (never the pinned set).
			for _, r := range got[len(s.Static):] {
				for _, pinned := range s.Static {
					if r == pinned {
						t.Fatalf("%s sampled pinned rate %v", name, r)
					}
				}
			}
		}
	}
}

func TestRandomStaticSamplesCoverPool(t *testing.T) {
	rates := NewRateList(0.25, 8)
	s := NewRMinMax(rates)
	rng := rand.New(rand.NewSource(3))
	seen := map[float64]bool{}
	for i := 0; i < 500; i++ {
		got := s.Next(rng)
		seen[got[2]] = true
	}
	if len(seen) != len(rates)-2 {
		t.Fatalf("sampled %d distinct pool rates, want %d", len(seen), len(rates)-2)
	}
}
