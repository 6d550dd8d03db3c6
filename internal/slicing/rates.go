// Package slicing implements the model-slicing training scheme of Cai et al.
// (VLDB 2019): slice-rate lists, the slice-rate scheduling schemes of
// Section 3.4 (Equation 8), the Algorithm-1 training step that accumulates
// gradients across scheduled sub-networks, Equation-3 budget-to-rate
// resolution, and standalone subnet extraction for deployment.
package slicing

import (
	"fmt"
	"math"
	"sort"
)

// RateList is the ordered (ascending) list of valid slice rates
// (r₁, …, r_G) of Section 3.4; the last entry must be 1 (the full network)
// and the first is the lower bound r₁ = lb of Section 5.1.3.
type RateList []float64

// NewRateList builds the rate list used throughout the paper's experiments:
// rates from lb to 1.0 in steps of 1/granularity (granularity 4, 8 or 16 —
// "in every 1/4, 1/8, 1/16, the slice granularity").
func NewRateList(lb float64, granularity int) RateList {
	if granularity <= 0 {
		panic(fmt.Sprintf("slicing: granularity must be positive, got %d", granularity))
	}
	if lb <= 0 || lb > 1 {
		panic(fmt.Sprintf("slicing: lower bound %v out of (0,1]", lb))
	}
	var rates RateList
	for i := 1; i <= granularity; i++ {
		r := float64(i) / float64(granularity)
		if r+1e-12 >= lb {
			rates = append(rates, r)
		}
	}
	if len(rates) == 0 || rates[len(rates)-1] != 1 {
		panic("slicing: rate list must end at 1.0")
	}
	return rates
}

// Check reports whether the list is non-empty, ascending, within (0,1] and
// ends at the full network.
func (l RateList) Check() error {
	if len(l) == 0 {
		return fmt.Errorf("slicing: empty rate list")
	}
	for i, r := range l {
		if !(r > 0 && r <= 1) { // NaN included
			return fmt.Errorf("slicing: rate %v out of (0,1]", r)
		}
		if i > 0 && l[i-1] >= r {
			return fmt.Errorf("slicing: rate list not ascending at %d: %v", i, l)
		}
	}
	if l[len(l)-1] != 1 {
		return fmt.Errorf("slicing: rate list must end at 1.0")
	}
	return nil
}

// Validate is Check that panics (for rate lists known to be well-formed).
func (l RateList) Validate() {
	if err := l.Check(); err != nil {
		panic(err)
	}
}

// Min returns the lower bound r₁.
func (l RateList) Min() float64 { return l[0] }

// Max returns the largest rate (1.0 for a valid list).
func (l RateList) Max() float64 { return l[len(l)-1] }

// Index returns the position of rate r, or an error when r is not a member.
func (l RateList) Index(r float64) (int, error) {
	for i, v := range l {
		if math.Abs(v-r) < 1e-9 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("slicing: rate %v not in list %v", r, l)
}

// MustIndex is Index that panics on error (for rates known to be members).
func (l RateList) MustIndex(r float64) int {
	i, err := l.Index(r)
	if err != nil {
		panic(err)
	}
	return i
}

// WidthIdx returns the position of rate r for layers that keep per-width
// state (nn.Context.WidthIdx), or 0 when r is not a member.
func (l RateList) WidthIdx(r float64) int {
	i, _ := l.Index(r)
	return i
}

// Nearest returns the member closest to r (ties resolve downward).
func (l RateList) Nearest(r float64) float64 {
	best, bd := l[0], math.Abs(l[0]-r)
	for _, v := range l[1:] {
		if d := math.Abs(v - r); d < bd {
			best, bd = v, d
		}
	}
	return best
}

// LargestWithin returns the largest member r with cost(r) ≤ budget, where
// cost is any monotone cost function (typically FLOPs from internal/cost).
// It falls back to the smallest rate when even that exceeds the budget, and
// reports whether the budget was satisfiable.
func (l RateList) LargestWithin(budget float64, cost func(r float64) float64) (float64, bool) {
	for i := len(l) - 1; i >= 0; i-- {
		if cost(l[i]) <= budget {
			return l[i], true
		}
	}
	return l[0], false
}

// BudgetRate implements Equation 3: the largest rate with r ≤ √(Ct/C0),
// snapped down to a member of the list (computation is ≈ quadratic in r).
func (l RateList) BudgetRate(ct, c0 float64) float64 {
	if c0 <= 0 {
		panic("slicing: full cost must be positive")
	}
	rMax := math.Sqrt(ct / c0)
	if rMax >= 1 {
		return 1
	}
	// Largest member ≤ rMax; fall back to the lower bound.
	idx := sort.SearchFloat64s(l, rMax+1e-12)
	if idx == 0 {
		return l[0]
	}
	return l[idx-1]
}
