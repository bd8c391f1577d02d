package optimize

import (
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
)

// SweepOptions tunes the warm-start batch solver. The zero value selects
// defaults suitable for every sweep in the paper's figures.
type SweepOptions struct {
	// PatternOptions bounds the search box exactly as for OptimalPattern;
	// a warm solve never leaves it, and every fallback runs inside it.
	PatternOptions
	// BracketFactor is the half-width of the warm bracket: cell i searches
	// P in [P*_{i-1}/BracketFactor, P*_{i-1}·BracketFactor] (default 32,
	// generous for every per-cell drift in Figs. 4–7, where P* moves by at
	// most a few × between adjacent sweep coordinates).
	BracketFactor float64
	// WarmGridP is the outer P-grid resolution inside the warm bracket
	// (default 10). It only needs to localize the minimum for the Brent
	// polish, not survive a cold multi-decade scan. The inner period grid
	// is GridT, as on the cold path: a certified scan costs a handful of
	// kernel calls whatever its resolution, and the dense grid hands
	// Brent a narrower bracket.
	WarmGridP int
	// Cold disables warm-starting entirely: every cell runs the reference
	// OptimalPattern grid scan (the -warm=false escape hatch; results are
	// then bit-identical to per-cell OptimalPattern calls).
	Cold bool
}

func (o SweepOptions) withDefaults() SweepOptions {
	o.PatternOptions = o.PatternOptions.withDefaults()
	if o.BracketFactor == 0 {
		o.BracketFactor = 32
	}
	if o.WarmGridP == 0 {
		o.WarmGridP = 10
	}
	return o
}

// coldScanGridP is the outer grid of a chain-restart scan: coarser than
// OptimalPattern's 96 (the Brent polish converges from a coarser
// localization at equal tolerance), still dense enough to not skip the
// feasible band of any Table II/III configuration (~2 points per decade
// over the default 13-decade box).
const coldScanGridP = 64

// SweepStats counts how a solver spent its cells: the measurable record
// of what warm-starting bought a sweep.
type SweepStats struct {
	// WarmSolves counts cells solved inside the warm bracket.
	WarmSolves int
	// ColdSolves counts cells solved by a full-box scan (first cell of a
	// chain, an objective-class change, or Cold mode).
	ColdSolves int
	// Fallbacks counts warm attempts that were rejected (optimum pinned
	// to a warm bracket edge, or an infeasible bracket) and re-solved on
	// the full box; they are also counted in ColdSolves.
	Fallbacks int
	// Evals totals exact-formula evaluations across all cells.
	Evals int
}

// SweepSolver solves a sequence of related pattern optimizations — the
// cells of one figure axis, ordered so that (T*, P*) varies smoothly —
// by warm-starting each cell from the previous optimum.
//
// The paper's sweep figures are continuous curves: along any one axis
// (α, λ_ind, D, platform) the optimum moves by at most a few × per cell.
// A warm cell therefore brackets the outer P search a factor
// BracketFactor around the previous P*, localizes the minimum on a short
// log-grid, and polishes with bounded Brent; the inner u = log T
// minimization is the cold path's certified GridT scan of the Theorem 1
// seed bracket, polished with Brent instead of golden section (~17
// refinement calls per probe instead of ~43 at equal tolerance, after a
// certified scan of ~3–5). A warm solve whose optimum lands on a warm bracket
// edge (the axis jumped), whose bracket is infeasible, or whose
// objective class changed since the previous cell falls back to the full
// cold box — warm-starting is an accelerator, never a different answer
// beyond the refinement tolerance (the sweep property tests pin warm
// against per-cell OptimalPattern within Tol-derived bounds).
//
// A solver is stateful (the previous optimum and a reusable prober with
// its per-P probe memo) and must not be shared between goroutines; run
// one solver per chain. The memo is keyed by P and valid only within one
// cell — the model changes between cells — so only its allocation is
// reused.
type SweepSolver struct {
	opts SweepOptions

	havePrev    bool
	prevP       float64
	prevAtBound bool
	prevClass   costmodel.Class

	pr    *prober
	stats SweepStats
}

// NewSweepSolver builds a solver for one chain of related models.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	opts = opts.withDefaults()
	return &SweepSolver{
		opts: opts,
		pr:   newProber(opts.PatternOptions, true),
	}
}

// Stats returns the per-chain solve counters accumulated so far.
func (s *SweepSolver) Stats() SweepStats { return s.stats }

// Observe primes the warm-start state from an externally obtained
// optimum for m (e.g. a cache hit for the cell), so the chain stays warm
// across cells the solver did not compute itself.
func (s *SweepSolver) Observe(m core.Model, res PatternResult) {
	s.havePrev = true
	s.prevP = res.P
	s.prevAtBound = res.AtPBound
	s.prevClass = m.Res.Classify().Class
}

// Solve returns the numerical optimum for the next cell of the chain.
// The first cell (and any cell whose warm solve is rejected) pays a full
// cold scan; subsequent cells typically cost an order of magnitude less.
func (s *SweepSolver) Solve(m core.Model) (PatternResult, error) {
	// Hold warm mode to the same option contract as OptimalPattern: a
	// bad search box must fail loudly here, not surface as an
	// out-of-bounds optimum or a misleading infeasibility error.
	if err := s.opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := m.Validate(); err != nil {
		return PatternResult{}, err
	}
	class := m.Res.Classify().Class
	if s.opts.Cold || !s.havePrev || class != s.prevClass {
		return s.solveCold(m, class, false)
	}
	res, ok, err := s.solveWarm(m)
	if err != nil {
		return PatternResult{}, err
	}
	if !ok {
		return s.solveCold(m, class, true)
	}
	s.stats.WarmSolves++
	s.stats.Evals += res.Evals
	s.Observe(m, res)
	return res, nil
}

// solveCold runs the full-box solve and records it as the new warm seed.
// In Cold mode it is the reference OptimalPattern (bit-identical to a
// per-cell call); otherwise it is the prober's Brent-polished scan on a
// coarser outer grid (coldScanGridP), which makes ~3× fewer kernel calls
// than the reference even at chain restarts.
func (s *SweepSolver) solveCold(m core.Model, class costmodel.Class, fallback bool) (PatternResult, error) {
	if fallback {
		s.stats.Fallbacks++
	}
	s.stats.ColdSolves++
	var (
		res PatternResult
		err error
	)
	if s.opts.Cold {
		res, err = OptimalPattern(m, s.opts.PatternOptions)
	} else {
		res, err = s.pr.pattern(m, s.opts.PMin, s.opts.PMax, min(coldScanGridP, s.opts.GridP))
	}
	if err != nil {
		return PatternResult{}, err
	}
	s.stats.Evals += res.Evals
	s.Observe(m, res)
	return res, nil
}

// solveWarm attempts the narrow-bracket solve. ok = false requests a
// cold fallback (infeasible bracket, or the optimum pinned to a warm
// edge that is not a global bound).
func (s *SweepSolver) solveWarm(m core.Model) (res PatternResult, ok bool, err error) {
	opts := s.opts
	pLo := math.Max(opts.PMin, s.prevP/opts.BracketFactor)
	pHi := math.Min(opts.PMax, s.prevP*opts.BracketFactor)
	if s.prevAtBound {
		// An unbounded-allocation neighbour: the optimum may still sit at
		// PMax, so the warm bracket must include it.
		pHi = opts.PMax
	}
	if !(pHi > pLo) {
		return PatternResult{}, false, nil
	}
	res, err = s.pr.pattern(m, pLo, pHi, opts.WarmGridP)
	if err != nil {
		// An infeasible or unsolvable warm bracket is a fallback trigger,
		// not a sweep failure: the cold box may still contain an optimum.
		return PatternResult{}, false, nil
	}
	// Reject an optimum pinned against a warm-only edge: the true optimum
	// drifted further than the bracket, so the narrow solve localized the
	// wrong basin. Global bounds are legitimate resting points.
	const edgeMargin = 0.02
	uLo, uHi, uX := math.Log(pLo), math.Log(pHi), math.Log(res.P)
	margin := edgeMargin * (uHi - uLo)
	if (uX-uLo < margin && pLo > opts.PMin*(1+1e-12)) ||
		(uHi-uX < margin && pHi < opts.PMax*(1-1e-12)) {
		return PatternResult{}, false, nil
	}
	res.Warm = true
	return res, true, nil
}

// BatchOptimalPattern solves every model of an ordered sweep axis with
// one warm-start chain, returning one result per model. It is the batch
// counterpart of per-cell OptimalPattern calls: same answers within the
// refinement tolerance, at a fraction of the evaluations (each
// PatternResult carries its own Evals count and Warm flag).
func BatchOptimalPattern(models []core.Model, opts SweepOptions) ([]PatternResult, error) {
	s := NewSweepSolver(opts)
	out := make([]PatternResult, len(models))
	for i, m := range models {
		res, err := s.Solve(m)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// GridBrentLog is the outer-loop counterpart on an arbitrary objective:
// a geometric grid over [lo, hi] followed by bounded Brent in u = log x
// coordinates. The returned X is in natural (not log) coordinates.
// Exported as the shared warm-bracket outer solve (the two-level sweep
// solver in internal/multilevel runs the same scheme).
func GridBrentLog(f Func, lo, hi float64, points int, tol float64) (Result, error) {
	if !(hi > lo) || lo <= 0 {
		return Result{}, errGridBounds
	}
	if points < 3 {
		return Result{}, errGridPoints
	}
	obj := func(u float64) float64 { return f(math.Exp(u)) }
	uLo, uHi := math.Log(lo), math.Log(hi)
	step := (uHi - uLo) / float64(points-1)
	gridPoint := func(i int) float64 {
		if i == points-1 {
			return uHi
		}
		return uLo + float64(i)*step
	}
	bestI, bestF := 0, math.Inf(1)
	for i := 0; i < points; i++ {
		if v := obj(gridPoint(i)); v < bestF {
			bestI, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return Result{}, errGridAllInf
	}
	a := gridPoint(max(bestI-1, 0))
	b := gridPoint(min(bestI+1, points-1))
	res := BrentMin(obj, a, b, tol, 0)
	res.Evals += points
	if bestF < res.F {
		res.X, res.F = gridPoint(bestI), bestF
	}
	res.X = math.Exp(res.X)
	return res, nil
}
