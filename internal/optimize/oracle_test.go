package optimize

import (
	"errors"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

// referenceOptimalPattern is the plain nested scan the prober must
// reproduce bit for bit: GridRefine over P (every grid point solved in
// full), and for each P a full GridT-point scan of the Theorem 1 seed
// bracket (2·GridT points over the whole period box on failure) followed
// by golden refinement. It is the optimizer as it stood before the
// certified scans, kept as the differential oracle.
func referenceOptimalPattern(m core.Model, opts PatternOptions) (PatternResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := m.Validate(); err != nil {
		return PatternResult{}, err
	}
	type innerRes struct {
		res Result
		err error
	}
	memo := map[float64]innerRes{}
	probe := func(p float64) innerRes {
		if pr, ok := memo[p]; ok {
			return pr
		}
		fz := m.Freeze(p)
		res, err := referenceMinimizeT(&fz, opts)
		memo[p] = innerRes{res, err}
		return memo[p]
	}
	g := func(p float64) float64 {
		if pr := probe(p); pr.err == nil {
			return pr.res.F
		}
		return math.Inf(1)
	}
	outer, err := GridRefine(g, opts.PMin, opts.PMax, opts.GridP, true, opts.Tol)
	if err != nil {
		return PatternResult{}, errors.New("optimize: no feasible pattern in the search box")
	}
	pStar := outer.X
	atBound := pStar >= opts.PMax*(1-1e-6)
	if opts.IntegerP && !atBound {
		pStar = BetterInteger(g, pStar, opts.PMin, opts.PMax)
	}
	inner := probe(pStar)
	if inner.err != nil {
		return PatternResult{}, inner.err
	}
	return PatternResult{
		Solution: core.Solution{
			T: inner.res.X, P: pStar, Overhead: inner.res.F,
			Method: "numerical", Class: m.Res.Classify().Class,
		},
		AtPBound: atBound,
	}, nil
}

func referenceMinimizeT(fz *core.Frozen, opts PatternOptions) (Result, error) {
	lo, hi := opts.TMin, opts.TMax
	if seed := fz.OptimalPeriod(); !math.IsInf(seed, 0) && seed > 0 {
		lo = math.Max(opts.TMin, seed/1e3)
		hi = math.Min(opts.TMax, seed*1e3)
		if !(hi > lo) {
			lo, hi = opts.TMin, opts.TMax
		}
	}
	res, err := referenceGridT(fz, math.Log(lo), math.Log(hi), opts.GridT, opts.Tol)
	if err != nil {
		res, err = referenceGridT(fz, math.Log(opts.TMin), math.Log(opts.TMax), opts.GridT*2, opts.Tol)
		if err != nil {
			return res, err
		}
	}
	res.X = math.Exp(res.X)
	return res, nil
}

// referenceGridT is the full inner scan: every grid point, then golden
// refinement of the best bracket.
func referenceGridT(fz *core.Frozen, uLo, uHi float64, points int, tol float64) (Result, error) {
	if !(uHi > uLo) {
		return Result{}, errGridBounds
	}
	if points < 3 {
		return Result{}, errGridPoints
	}
	if fz.OverflowsBeyond(uLo) {
		return Result{}, errGridAllInf
	}
	g := tGrid{uLo: uLo, uHi: uHi, step: (uHi - uLo) / float64(points-1), points: points}
	g.best, g.bestF = referenceArgmin(fz, &g)
	if math.IsInf(g.bestF, 1) {
		return Result{}, errGridAllInf
	}
	res := Golden(fz.OverheadLog, g.u(max(g.best-1, 0)), g.u(min(g.best+1, points-1)), tol, 0)
	if g.bestF < res.F {
		res.X, res.F = g.u(g.best), g.bestF
	}
	return res, nil
}

func referenceArgmin(fz *core.Frozen, g *tGrid) (int, float64) {
	best, bestF := 0, math.Inf(1)
	for i := 0; i < g.points; i++ {
		if v := fz.OverheadLog(g.u(i)); v < bestF {
			best, bestF = i, v
		}
	}
	return best, bestF
}

// sameSolve reports whether the prober and the oracle agree bit for bit
// on the answer (T, P, Overhead, AtPBound, Class) and on the error.
func sameSolve(got, want PatternResult, gotErr, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error()
	}
	return math.Float64bits(got.T) == math.Float64bits(want.T) &&
		math.Float64bits(got.P) == math.Float64bits(want.P) &&
		math.Float64bits(got.Overhead) == math.Float64bits(want.Overhead) &&
		got.AtPBound == want.AtPBound && got.Class == want.Class
}

func checkAgainstOracle(t *testing.T, label string, m core.Model, opts PatternOptions) {
	t.Helper()
	got, gotErr := OptimalPattern(m, opts)
	want, wantErr := referenceOptimalPattern(m, opts)
	if !sameSolve(got, want, gotErr, wantErr) {
		t.Errorf("%s: prober (T=%.17g P=%.17g H=%.17g bound=%t err=%v) != oracle (T=%.17g P=%.17g H=%.17g bound=%t err=%v)",
			label, got.T, got.P, got.Overhead, got.AtPBound, gotErr,
			want.T, want.P, want.Overhead, want.AtPBound, wantErr)
	}
}

func platformModel(t testing.TB, pl platform.Platform, sc costmodel.Scenario, alpha, downtime float64) core.Model {
	t.Helper()
	res, err := pl.Resilience(sc, downtime)
	if err != nil {
		t.Fatal(err)
	}
	var profile speedup.Profile = speedup.Amdahl{Alpha: alpha}
	if alpha == 0 {
		profile = speedup.PerfectlyParallel{}
	}
	return core.Model{
		LambdaInd:    pl.LambdaInd,
		FailStopFrac: pl.FailStopFraction,
		SilentFrac:   pl.SilentFraction,
		Res:          res,
		Profile:      profile,
	}
}

// TestOptimalPatternMatchesOracle is the differential check of the
// certified scans: over the four Table II platforms × six scenarios ×
// an α axis (including the perfectly parallel α = 0) × four downtimes ×
// {default, IntegerP, PMax = N/4}, and a λ axis from 1e-20 to 1e-5, the
// prober must return exactly the oracle's answer or error. -short runs
// four α values.
func TestOptimalPatternMatchesOracle(t *testing.T) {
	alphas := append([]float64{0}, xmath.Logspace(1e-5, 0.5, 8)...)
	if testing.Short() {
		alphas = []float64{0, 1e-4, 1e-2, 0.3}
	}
	for _, pl := range platform.All() {
		variants := []struct {
			name string
			opts PatternOptions
		}{
			{"default", PatternOptions{}},
			{"integer", PatternOptions{IntegerP: true}},
			{"pmax", PatternOptions{PMax: pl.Processors / 4}},
		}
		for _, sc := range costmodel.AllScenarios {
			for _, alpha := range alphas {
				for _, d := range []float64{0, 60, 3600, 36000} {
					m := platformModel(t, pl, sc, alpha, d)
					for _, v := range variants {
						checkAgainstOracle(t, pl.Name+"/"+sc.String()+"/"+v.name, m, v.opts)
					}
				}
			}
		}
		for _, lambda := range xmath.Logspace(1e-20, 1e-5, 16) {
			m := platformModel(t, pl, costmodel.Scenario3, 0.1, 3600)
			m.LambdaInd = lambda
			checkAgainstOracle(t, pl.Name+"/lambda", m, PatternOptions{})
		}
	}
}

// TestOptimalPeriodMatchesOracle holds the exported fixed-P period
// search to the plain inner scan, bit for bit, across the P range the
// outer grid visits.
func TestOptimalPeriodMatchesOracle(t *testing.T) {
	opts := PatternOptions{}.withDefaults()
	for _, sc := range costmodel.AllScenarios {
		m := heraModel(t, sc, 0.1)
		for _, p := range xmath.Logspace(1, 1e13, 27) {
			fz := m.Freeze(p)
			want, wantErr := referenceMinimizeT(&fz, opts)
			gotT, gotH, gotErr := OptimalPeriod(m, p, PatternOptions{})
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr == nil && (math.Float64bits(gotT) != math.Float64bits(want.X) ||
					math.Float64bits(gotH) != math.Float64bits(want.F))) {
				t.Errorf("%v P=%g: OptimalPeriod (%v, %v, %v) != oracle (%v, %v, %v)",
					sc, p, gotT, gotH, gotErr, want.X, want.F, wantErr)
			}
		}
	}
}

// TestOptimalPatternEvalsAreCallsMade pins the accounting: Evals counts
// kernel calls actually made, which the certificates cut well below the
// full scan's count while the answer stays bit-identical.
func TestOptimalPatternEvalsAreCallsMade(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	res, err := OptimalPattern(m, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The full nested scan makes ~12.8k calls on this model (140 P probes
	// × (48 grid + ~41 golden)).
	if res.Evals <= 0 || res.Evals > 12800/3 {
		t.Errorf("Evals = %d, want a positive count under a third of the full scan's", res.Evals)
	}
}

// certScan runs one certified inner grid scan and returns its argmin,
// value and kernel-call count.
func certScan(fz *core.Frozen, uLo, uHi float64, points int) (int, float64, int) {
	pr := &prober{}
	g, _ := pr.scanGrid(fz, uLo, uHi, points, certMargin(fz), false)
	return g.best, g.bestF, pr.evals
}

func TestCertifiedArgminMatchesFullScan(t *testing.T) {
	hera := heraModel(t, costmodel.Scenario3, 0.1)
	flat := hera
	flat.LambdaInd = 0
	flat.Res.Checkpoint = costmodel.Checkpoint{}
	flat.Res.Recovery = costmodel.Checkpoint{}
	flat.Res.Verification = costmodel.Verification{}
	overflow := hera
	overflow.LambdaInd = 1e-4
	cases := []struct {
		name       string
		m          core.Model
		p          float64
		tLo, tHi   float64
		wantFull   bool // the certificate must fall back to the full scan
		wantIndex  int  // -1: interior
		wantInfTop bool // the grid's right tail is +Inf
	}{
		// Optimum (~9e3 s) far above the bracket: H increases from the
		// low edge, so the argmin is index 0.
		{name: "argmin at index 0", m: hera, p: 237, tLo: 1e5, tHi: 1e8, wantIndex: 0},
		// Optimum far below the bracket: argmin at the top index.
		{name: "argmin at points-1", m: hera, p: 237, tLo: 1, tHi: 100, wantIndex: 47},
		// Error-free model: H = (t + C + V)/t·H(P) decreases to the top.
		{name: "error-free decreasing", m: func() core.Model { m := hera; m.LambdaInd = 0; return m }(),
			p: 237, tLo: 1, tHi: 1e6, wantIndex: 47},
		// Overflowing right tail: every point past ~1e6 s is +Inf.
		{name: "all-Inf right tail", m: overflow, p: 512, tLo: 1e-3, tHi: 1e12, wantIndex: -1, wantInfTop: true},
		// Zero costs and no errors: H ≡ H(P), an exact plateau the
		// descent stops on and the certificate must reject.
		{name: "plateau", m: flat, p: 237, tLo: 1, tHi: 1e6, wantFull: true, wantIndex: 0},
	}
	const points = 48
	for _, c := range cases {
		fz := c.m.Freeze(c.p)
		uLo, uHi := math.Log(c.tLo), math.Log(c.tHi)
		g := tGrid{uLo: uLo, uHi: uHi, step: (uHi - uLo) / (points - 1), points: points}
		wantI, wantF := referenceArgmin(&fz, &g)
		gotI, gotF, evals := certScan(&fz, uLo, uHi, points)
		if gotI != wantI || math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("%s: certified argmin (%d, %v) != full scan (%d, %v)", c.name, gotI, gotF, wantI, wantF)
		}
		if c.wantIndex >= 0 && wantI != c.wantIndex {
			t.Errorf("%s: full scan argmin %d, case wants %d", c.name, wantI, c.wantIndex)
		}
		if c.wantInfTop && !math.IsInf(fz.OverheadLog(uHi), 1) {
			t.Errorf("%s: right tail is finite", c.name)
		}
		if c.wantFull && evals != points {
			t.Errorf("%s: %d calls, want the full scan's %d", c.name, evals, points)
		}
		if !c.wantFull && evals >= points {
			t.Errorf("%s: %d calls, the certificate should have skipped most of %d", c.name, evals, points)
		}
	}
}

// TestLowerBoundHoldsOnBracket checks the pruning bound directly: no
// point of the refinement bracket may evaluate below it.
func TestLowerBoundHoldsOnBracket(t *testing.T) {
	for _, sc := range costmodel.AllScenarios {
		m := heraModel(t, sc, 0.1)
		for _, p := range xmath.Logspace(1, 1e6, 13) {
			fz := m.Freeze(p)
			seed := fz.OptimalPeriod()
			uLo, uHi := math.Log(seed/1e3), math.Log(seed*1e3)
			pr := &prober{}
			g, lb := pr.scanGrid(&fz, uLo, uHi, 48, certMargin(&fz), true)
			if g.err != nil {
				continue
			}
			if !(lb <= g.bestF) {
				t.Errorf("%v P=%g: bound %v above the grid minimum %v", sc, p, lb, g.bestF)
			}
			a, b := g.u(max(g.best-1, 0)), g.u(min(g.best+1, g.points-1))
			for i := 0; i <= 400; i++ {
				u := a + (b-a)*float64(i)/400
				if v := fz.OverheadLog(u); v < lb {
					t.Fatalf("%v P=%g: H(e^%v) = %v below the bound %v", sc, p, u, v, lb)
				}
			}
		}
	}
}

// FuzzOptimalPatternCertified drives the prober and the oracle over
// arbitrary platform × scenario × α × downtime × λ × option draws; any
// bit of disagreement in the answer or the error fails. The seed corpus
// is in testdata/fuzz.
func FuzzOptimalPatternCertified(f *testing.F) {
	f.Fuzz(func(t *testing.T, plat, scenario uint8, alpha, downtime, lambdaScale float64, variant uint8) {
		pls := platform.All()
		pl := pls[int(plat)%len(pls)]
		sc := costmodel.AllScenarios[int(scenario)%len(costmodel.AllScenarios)]
		if !(alpha >= 0 && alpha <= 1) || !(downtime >= 0 && downtime <= 1e6) ||
			!(lambdaScale >= 0 && lambdaScale <= 1e6) {
			t.Skip()
		}
		m := platformModel(t, pl, sc, alpha, downtime)
		m.LambdaInd *= lambdaScale
		opts := []PatternOptions{
			{},
			{IntegerP: true},
			{PMax: pl.Processors / 4},
			{GridP: 24, GridT: 12},
		}[int(variant)%4]
		checkAgainstOracle(t, "fuzz", m, opts)
	})
}
