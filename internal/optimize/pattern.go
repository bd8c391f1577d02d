package optimize

import (
	"fmt"
	"math"

	"amdahlyd/internal/core"
)

// PatternOptions tunes the nested (T, P) optimization. The zero value
// selects defaults suitable for every experiment in the paper.
type PatternOptions struct {
	// PMin and PMax bound the processor search (defaults 1 and 1e13; the
	// α = 0 sweeps of Fig. 6 reach P* ≈ λ^−1 = 1e12).
	PMin, PMax float64
	// TMin and TMax bound the period search in seconds (defaults 1e-6
	// and 1e12; the low default matters in the unbounded-allocation
	// regimes, where the optimal period shrinks like 1/P and a coarse
	// lower bound would fabricate an interior optimum).
	TMin, TMax float64
	// GridP and GridT are the coarse log-grid resolutions (defaults 96
	// and 48).
	GridP, GridT int
	// Tol is the relative tolerance of the golden refinements
	// (default 1e-10).
	Tol float64
	// IntegerP rounds the processor allocation to the better of
	// floor/ceil after the continuous optimization.
	IntegerP bool
}

func (o PatternOptions) withDefaults() PatternOptions {
	if o.PMin == 0 {
		o.PMin = 1
	}
	if o.PMax == 0 {
		o.PMax = 1e13
	}
	if o.TMin == 0 {
		o.TMin = 1e-6
	}
	if o.TMax == 0 {
		o.TMax = 1e12
	}
	if o.GridP == 0 {
		o.GridP = 96
	}
	if o.GridT == 0 {
		o.GridT = 48
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	return o
}

func (o PatternOptions) validate() error {
	if !(o.PMax > o.PMin) || o.PMin < 1 {
		return fmt.Errorf("optimize: bad processor bounds [%g, %g]", o.PMin, o.PMax)
	}
	if !(o.TMax > o.TMin) || o.TMin <= 0 {
		return fmt.Errorf("optimize: bad period bounds [%g, %g]", o.TMin, o.TMax)
	}
	return nil
}

// PatternResult is the numerical optimum of the exact overhead
// H(T, P) = E(PATTERN)/(T·S(P)) from Proposition 1.
type PatternResult struct {
	core.Solution
	// AtPBound reports that the optimizer stopped at PMax: the overhead
	// was still decreasing, so the true optimum lies beyond the search
	// bound (this happens by design in scenario 6 with α = 0, where the
	// paper finds the allocation unbounded).
	AtPBound bool
	// Evals counts the exact-formula (kernel) evaluations the solve
	// actually made.
	Evals int
	// Warm reports that the result was produced by a SweepSolver
	// warm-start solve (narrow bracket around the previous cell's
	// optimum) rather than the full cold grid scan.
	Warm bool
}

// OptimalPeriod minimizes the exact overhead over T for a fixed processor
// count and returns (T*, H(T*, P)). It seeds the search with the
// first-order Theorem 1 period when it is finite and inside bounds.
func OptimalPeriod(m core.Model, p float64, opts PatternOptions) (float64, float64, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return 0, 0, err
	}
	fz := m.Freeze(p)
	pr := prober{opts: opts}
	g, _ := pr.scanT(&fz, false)
	if g.err != nil {
		return 0, 0, g.err
	}
	res := refineT(&fz, &g, opts.Tol, false)
	return res.X, res.F, nil
}

// OptimalPattern minimizes the exact overhead jointly over T and P by a
// log-grid scan over P with golden refinement, solving the inner period
// problem exactly at each probe. This is the reproduction of the paper's
// "Optimal (numerical)" solution (the role played by the iterative method
// of Jin et al. [14] in the paper's comparison).
//
// Each distinct P is compiled (Freeze) and minimized over T a single
// time, and the prober's certificates skip every kernel call that
// cannot change the answer: the result is bit-identical to the plain
// nested grid-plus-golden scan, and Evals counts the calls made.
func OptimalPattern(m core.Model, opts PatternOptions) (PatternResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := m.Validate(); err != nil {
		return PatternResult{}, err
	}
	return newProber(opts, false).pattern(m, opts.PMin, opts.PMax, opts.GridP)
}

// BetterInteger picks the best integer processor count adjacent to the
// continuous optimum (exported for the outer P rounding of every joint
// optimizer, including the two-level one in internal/multilevel).
func BetterInteger(g Func, p, pMin, pMax float64) float64 {
	lo := math.Max(pMin, math.Floor(p))
	hi := math.Min(pMax, math.Ceil(p))
	if lo == hi {
		return lo
	}
	if g(lo) <= g(hi) {
		return lo
	}
	return hi
}
