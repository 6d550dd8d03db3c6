package slicing

import (
	"fmt"
	"math"
	"math/rand"
)

// Scheduler produces, for each training pass, the list Lt of slice rates
// whose sub-networks are trained on the current batch (Algorithm 1 /
// Section 3.4). Implementations must be deterministic given the rng.
type Scheduler interface {
	// Next returns the slice rates for one training pass in one new
	// slice, allocated at its final length: the caller keeps it
	// (Trainer.Step returns it as StepStats.Rates).
	Next(rng *rand.Rand) []float64
	// Name identifies the scheme in reports (Table 1 column headers).
	Name() string
}

// Fixed always schedules the same single rate — used to train the
// conventional fixed-width baselines ("fixed models" in Tables 1/2/4).
type Fixed struct{ Rate float64 }

// Next returns the fixed rate.
func (f Fixed) Next(*rand.Rand) []float64 { return []float64{f.Rate} }

// Name implements Scheduler.
func (f Fixed) Name() string { return fmt.Sprintf("Fixed-%.3f", f.Rate) }

// Static schedules every rate in the list each pass — the SlimmableNet-style
// scheme the paper finds inferior to weighted random scheduling (Table 1).
type Static struct{ Rates RateList }

// Next returns all rates.
func (s Static) Next(*rand.Rand) []float64 { return append([]float64(nil), s.Rates...) }

// Name implements Scheduler.
func (s Static) Name() string { return "Static" }

// Random samples K rates per pass from a categorical distribution over the
// rate list. Probabilities express the relative importance of the subnets
// (Section 3.4); the paper's R-weighted scheme uses (0.5, 0.125, 0.125, 0.25)
// over (1.0, 0.75, 0.5, 0.25) — i.e. more mass on the full and base network.
type Random struct {
	Rates RateList
	Probs []float64
	K     int
	label string
}

// NewRandomUniform builds the R-uniform-k scheme.
func NewRandomUniform(rates RateList, k int) *Random {
	p := make([]float64, len(rates))
	for i := range p {
		p[i] = 1 / float64(len(rates))
	}
	return &Random{Rates: rates, Probs: p, K: k, label: fmt.Sprintf("R-uniform-%d", k)}
}

// NewRandomWeighted builds the R-weighted-k scheme. weights are given in the
// same order as rates and are normalized internally.
func NewRandomWeighted(rates RateList, weights []float64, k int) *Random {
	if len(weights) != len(rates) {
		panic(fmt.Sprintf("slicing: %d weights for %d rates", len(weights), len(rates)))
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("slicing: negative scheduling weight")
		}
		sum += w
	}
	p := make([]float64, len(weights))
	for i, w := range weights {
		p[i] = w / sum
	}
	return &Random{Rates: rates, Probs: p, K: k, label: fmt.Sprintf("R-weighted-%d", k)}
}

// NewRandomFromDensity parameterizes the categorical distribution from a
// continuous density f(r) via Equation 8: each rate's probability is the
// integral of f between the midpoints of its neighbours.
func NewRandomFromDensity(rates RateList, cdf func(float64) float64, k int, label string) *Random {
	g := len(rates)
	p := make([]float64, g)
	for i := range rates {
		switch {
		case g == 1:
			p[i] = 1
		case i == 0:
			p[i] = cdf((rates[0] + rates[1]) / 2)
		case i == g-1:
			p[i] = 1 - cdf((rates[g-2]+rates[g-1])/2)
		default:
			p[i] = cdf((rates[i]+rates[i+1])/2) - cdf((rates[i-1]+rates[i])/2)
		}
	}
	// Normalize residual mass (a density may not integrate to 1 over (0,1]).
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
	return &Random{Rates: rates, Probs: p, K: k, label: label}
}

// NormalCDF returns the CDF of N(mu, sigma²) for use with
// NewRandomFromDensity.
func NormalCDF(mu, sigma float64) func(float64) float64 {
	return func(x float64) float64 {
		return 0.5 * (1 + math.Erf((x-mu)/(sigma*math.Sqrt2)))
	}
}

// Next samples K rates (with replacement, matching the paper's independent
// draws per forward pass).
func (r *Random) Next(rng *rand.Rand) []float64 {
	out := make([]float64, r.K)
	for i := range out {
		out[i] = r.sample(rng)
	}
	return out
}

func (r *Random) sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for i, p := range r.Probs {
		acc += p
		if u < acc {
			return r.Rates[i]
		}
	}
	return r.Rates[len(r.Rates)-1]
}

// Name implements Scheduler.
func (r *Random) Name() string { return r.label }

// RandomStatic schedules a fixed set of rates every pass plus K rates
// sampled uniformly from the remaining pool — the paper's R-min, R-max and
// R-min-max schemes (Section 3.4, Table 1).
type RandomStatic struct {
	Rates  RateList
	Static []float64
	pool   []float64
	K      int
	label  string
}

// NewRandomStatic builds a random-static scheme with the given pinned rates.
func NewRandomStatic(rates RateList, static []float64, k int, label string) *RandomStatic {
	inStatic := func(r float64) bool {
		for _, s := range static {
			if math.Abs(s-r) < 1e-9 {
				return true
			}
		}
		return false
	}
	rs := &RandomStatic{Rates: rates, Static: append([]float64(nil), static...), K: k, label: label}
	for _, r := range rates {
		if !inStatic(r) {
			rs.pool = append(rs.pool, r)
		}
	}
	if len(rs.pool) == 0 && k > 0 {
		panic("slicing: RandomStatic has an empty sampling pool")
	}
	return rs
}

// NewRMin pins the base network (lower bound) and samples one other rate.
func NewRMin(rates RateList) *RandomStatic {
	return NewRandomStatic(rates, []float64{rates.Min()}, 1, "R-min")
}

// NewRMax pins the full network and samples one other rate.
func NewRMax(rates RateList) *RandomStatic {
	return NewRandomStatic(rates, []float64{rates.Max()}, 1, "R-max")
}

// NewRMinMax pins both the base and the full network — the two most
// important subnets per Section 3.4 — and samples one of the rest. This is
// the scheme the paper selects for larger datasets.
func NewRMinMax(rates RateList) *RandomStatic {
	return NewRandomStatic(rates, []float64{rates.Min(), rates.Max()}, 1, "R-min-max")
}

// Next returns the pinned rates plus K uniform samples from the pool.
func (rs *RandomStatic) Next(rng *rand.Rand) []float64 {
	out := append(make([]float64, 0, len(rs.Static)+rs.K), rs.Static...)
	for i := 0; i < rs.K && len(rs.pool) > 0; i++ {
		out = append(out, rs.pool[rng.Intn(len(rs.pool))])
	}
	return out
}

// Name implements Scheduler.
func (rs *RandomStatic) Name() string { return rs.label }
