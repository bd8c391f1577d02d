package hetero

import (
	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
)

// SweepOptions tunes the warm-start batch solver for sweep-shaped
// heterogeneous work (many joint optimizations along a smooth axis — a
// comm-term sweep, a group-size split, a λ axis). The zero value selects
// defaults consistent with optimize.SweepOptions.
type SweepOptions struct {
	// PatternOptions bounds the search exactly as for OptimalPattern.
	PatternOptions
	// BracketFactor and WarmGridP configure the per-group warm brackets
	// (defaults 32 and 10, as in optimize.SweepOptions).
	BracketFactor float64
	WarmGridP     int
	// Cold disables warm-starting entirely: every cell runs the reference
	// OptimalPattern scan and is bit-identical to a per-cell call.
	Cold bool
}

// SweepStats counts how a solver spent its per-group chains, aggregated
// across all (group, active-count) chains.
type SweepStats struct {
	// WarmSolves counts per-group solves inside a warm bracket.
	WarmSolves int
	// ColdSolves counts per-group full-box scans.
	ColdSolves int
	// Fallbacks counts rejected warm attempts re-solved on the full box.
	Fallbacks int
	// Evals totals exact-formula evaluations across all cells.
	Evals int
}

// SweepSolver solves a sequence of related heterogeneous optimizations by
// warm-starting every per-group pattern solve from the previous cell's
// optimum. Internally it holds one optimize.SweepSolver per (group,
// active-count) pair: along a smooth axis each group's A_g(G) optimum
// drifts slowly, so each chain pays the narrow-bracket solve with the
// standard edge-rejection/full-box-fallback discipline. Warm-starting is
// an accelerator, never a different answer beyond the refinement
// tolerance (pinned by the warm-vs-cold property tests); Cold mode
// delegates to OptimalPattern wholesale and is bit-identical to per-cell
// calls.
//
// A solver is stateful and must not be shared between goroutines; run one
// solver per chain. The chains are keyed by (group index, active count),
// so the solver assumes successive cells share a group layout (same group
// count and order) — the shape of every sweep axis in this repo.
type SweepSolver struct {
	opts   SweepOptions
	chains map[chainKey]*optimize.SweepSolver
	stats  SweepStats
}

// chainKey identifies one per-group warm chain. The group's clamped
// processor bound is part of the key: a group whose capacity changed
// between cells (a size-split axis) gets a fresh chain — a stale PMax
// baked into a solver would let the chain search outside the new
// capacity, which is a wrong answer, not just a slow one.
type chainKey struct {
	group  int
	active int
	pMax   float64
}

// NewSweepSolver builds a solver for one chain of related cells.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	return &SweepSolver{
		opts:   opts,
		chains: make(map[chainKey]*optimize.SweepSolver),
	}
}

// Stats returns the aggregated per-chain solve counters so far.
func (s *SweepSolver) Stats() SweepStats { return s.stats }

// chain returns (creating on first use) the per-(group, active) chain
// with the group's clamped search box baked in.
func (s *SweepSolver) chain(g, active int, po optimize.PatternOptions) *optimize.SweepSolver {
	k := chainKey{group: g, active: active, pMax: po.PMax}
	sv, ok := s.chains[k]
	if !ok {
		sv = optimize.NewSweepSolver(optimize.SweepOptions{
			PatternOptions: po,
			BracketFactor:  s.opts.BracketFactor,
			WarmGridP:      s.opts.WarmGridP,
		})
		s.chains[k] = sv
	}
	return sv
}

// Observe primes every active group's chain from an externally obtained
// optimum for hm (e.g. a cache hit for the cell), so the chains stay warm
// across cells the solver did not compute itself. Inactive groups'
// chains are left untouched — their next solve falls back to a cold scan,
// which is exactly the conservative behaviour a cache hit warrants.
func (s *SweepSolver) Observe(hm core.HeteroModel, res PatternResult) {
	for _, gp := range res.Groups {
		if gp.Group < 0 || gp.Group >= len(hm.Groups) {
			continue
		}
		m, err := hm.ActiveModel(gp.Group, res.Active)
		if err != nil {
			continue
		}
		po := s.opts.groupOptions(hm.Groups[gp.Group].Size)
		s.chain(gp.Group, res.Active, po).Observe(m, optimize.PatternResult{
			Solution: core.Solution{T: gp.T, P: gp.P, Overhead: gp.GroupOverhead},
			AtPBound: gp.AtPBound,
		})
	}
}

// Solve returns the joint heterogeneous optimum for the next cell of the
// chain. The first cell (and any per-group solve whose warm attempt is
// rejected) pays full-box scans; subsequent cells search only the narrow
// brackets around the previous per-group optima.
func (s *SweepSolver) Solve(hm core.HeteroModel) (PatternResult, error) {
	if s.opts.Cold {
		res, err := OptimalPattern(hm, s.opts.PatternOptions)
		if err != nil {
			return PatternResult{}, err
		}
		s.stats.ColdSolves += solvesIn(res)
		s.stats.Evals += res.Evals
		return res, nil
	}
	if err := hm.Validate(); err != nil {
		return PatternResult{}, err
	}
	evals := 0
	warm := func(g, active int, m core.Model, po optimize.PatternOptions) (optimize.PatternResult, error) {
		sv := s.chain(g, active, po)
		before := sv.Stats()
		res, err := sv.Solve(m)
		after := sv.Stats()
		s.stats.WarmSolves += after.WarmSolves - before.WarmSolves
		s.stats.ColdSolves += after.ColdSolves - before.ColdSolves
		s.stats.Fallbacks += after.Fallbacks - before.Fallbacks
		return res, err
	}
	res, err := solveScan(hm, s.opts.PatternOptions, memoized(hm, warm, &evals))
	if err != nil {
		return PatternResult{}, err
	}
	res.Evals = evals
	s.stats.Evals += evals
	res.Warm = true
	return res, nil
}

// solvesIn counts the per-group solves a cold joint solve performed (one
// per feasible group per distinct comm charge; approximated by the active
// set size, the only observable part).
func solvesIn(res PatternResult) int { return len(res.Groups) }

// BatchOptimalPattern solves every cell of an ordered sweep axis with one
// warm-start chain, returning one result per model. It is the batch
// counterpart of per-cell OptimalPattern calls: same answers within the
// refinement tolerance at a fraction of the evaluations.
func BatchOptimalPattern(models []core.HeteroModel, opts SweepOptions) ([]PatternResult, error) {
	s := NewSweepSolver(opts)
	out := make([]PatternResult, len(models))
	for i, hm := range models {
		res, err := s.Solve(hm)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
