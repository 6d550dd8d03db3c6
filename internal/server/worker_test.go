package server

import (
	"math/rand"
	"testing"
	"time"

	"modelslicing/internal/nn"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// TestWorkersShareOneWeightSet pins the memory claim of the zero-copy
// engine: every worker serves from the same Shared instance (O(params)
// total), rather than holding per-(worker, rate) Extract-ed replicas.
func TestWorkersShareOneWeightSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewDense(8, 16, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(16, 3, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	s, err := New(Config{
		Model:      model,
		Rates:      slicing.NewRateList(0.25, 4),
		InputShape: []int{8},
		SLO:        50 * time.Millisecond,
		Workers:    4,
		SampleTime: func(r float64) float64 { return 1e-6 * r * r },
		Clock:      NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if len(s.workers) != 4 {
		t.Fatalf("want 4 workers, have %d", len(s.workers))
	}
	// Workers hold no weights at all — just arenas; every shard arrives with
	// the server's single Shared (captured per window), which wraps the
	// parent model in place.
	if s.shared.Model() != nn.Layer(model) {
		t.Fatal("server does not serve the parent model in place")
	}
	for i, wk := range s.workers {
		if wk.arena == nil {
			t.Fatalf("worker %d has no arena", i)
		}
	}
}

// TestWorkerRunMatchesDirectInference verifies the sharded arena-backed
// batch path returns exactly what a direct shared-path inference returns.
func TestWorkerRunMatchesDirectInference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := nn.NewSequential(
		nn.NewDense(6, 12, nn.Fixed(), nn.Sliced(4), true, rng),
		nn.NewReLU(),
		nn.NewDense(12, 4, nn.Sliced(4), nn.Fixed(), true, rng),
	)
	rates := slicing.NewRateList(0.25, 4)
	shared := slicing.NewShared(model, rates)
	wk := &worker{arena: tensor.NewArena()}

	const n = 5
	queries := make([]*query, n)
	batch := tensor.New(n, 6)
	for i := range queries {
		x := tensor.New(6)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		queries[i] = &query{x: x}
		copy(batch.Data[i*6:(i+1)*6], x.Data)
	}
	for _, r := range rates {
		wk.run(shared, queries, r, []int{6})
		want := shared.Infer(r, batch, nil)
		for i, q := range queries {
			row := q.out
			for j := range row.Data {
				if row.Data[j] != want.Data[i*4+j] {
					t.Fatalf("rate %v query %d: sharded result diverges from direct inference", r, i)
				}
			}
		}
	}
}
