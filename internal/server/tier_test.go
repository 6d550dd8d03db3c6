package server

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"modelslicing/internal/models"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// TestServerTierConfig pins the tier knob: an explicit Config.Tier is parsed
// and applied to the shared engine before calibration, an unknown tier fails
// construction, and the snapshot reports the active tier.
func TestServerTierConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Config{
		Model:            models.NewMLP(4, []int{8, 8}, 3, 4, rng),
		Rates:            slicing.NewRateList(0.25, 4),
		InputShape:       []int{4},
		SLO:              20 * time.Millisecond,
		CalibrationBatch: 4,
		Tier:             "fma",
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	st := s.Stats()
	if st.EngineTier != tensor.TierFMA {
		t.Fatalf("EngineTier = %v, want fma", st.EngineTier)
	}
	// Calibration ran after SetTier, so t(r) was measured on the fma engine.
	if len(st.SampleTimes) != len(cfg.Rates) {
		t.Fatalf("calibration measured %d rates, want %d", len(st.SampleTimes), len(cfg.Rates))
	}

	// "f32" was a tier once; it is refused with ParseTier's message like any
	// other unknown spelling (msserver -tier f32 prints it and exits 2).
	for _, name := range []string{"bf16", "f32"} {
		cfg.Tier = name
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "unknown engine tier") || !strings.Contains(err.Error(), name) {
			t.Fatalf("tier %q: err = %v, want ParseTier's refusal naming the tier", name, err)
		}
	}
}
