package optimize

import (
	"errors"
	"math"

	"amdahlyd/internal/core"
)

// prober runs the nested (T, P) search of one model: an outer log-grid
// over P, refined by golden section (the cold reference, OptimalPattern)
// or bounded Brent (the warm path, SweepSolver), where every probe of
// g(P) = min_T H(T, P) is itself a log-grid over u = log T refined the
// same way.
//
// Two certificates let it skip kernel calls that cannot change the
// answer; every (T, P, H, AtPBound) is bit-identical to the plain scans
// (the differential oracle test pins this):
//
//   - Each inner grid scan descends from the grid centre (where the
//     Theorem 1 seed sits) to a local minimum b and accepts it when both
//     neighbours exceed f_b by a relative margin far above the kernel's
//     rounding error. H is quasi-convex in u (E(T) is convex), so b is
//     then the index the full scan would return; otherwise the full scan
//     runs on the cached values. See certMargin for the error model.
//   - The outer grid runs in two phases. Phase 1 scans every P-grid
//     probe and bounds its refined minimum from below by convexity
//     secants of G(t) = H·t = E(t)·H(P) through b±2 (lowerBound). Phase 2
//     refines only the probes whose bound does not exceed the best
//     unrefined grid value: the others provably cannot be the outer
//     argmin. A pruned probe is refined lazily if the integer rounding or
//     the final probe revisits its P.
//
// A prober keeps its buffers across models (each pattern call starts a
// fresh memo) and is not safe for concurrent use.
type prober struct {
	m     core.Model
	opts  PatternOptions
	brent bool // refine brackets with BrentMin instead of golden section

	probes []probe
	index  map[float64]int // P → probes slot
	vals   []float64       // inner grid values of the probe being scanned
	gridAt []int           // outer grid index → probes slot
	evals  int             // kernel calls made for the current model
}

// probe is the memoized state of one inner period minimization.
type probe struct {
	grid tGrid
	// lb bounds every value the refinement of grid can return from below
	// (outer grid probes only; -Inf elsewhere).
	lb   float64
	done bool    // refinement ran: t, h are final
	t, h float64 // T* and H(T*, P) of the refined probe
}

// tGrid is the outcome of a certified inner grid scan: the u = log T grid
// it ran on and the argmin index and value the full scan would return.
type tGrid struct {
	uLo, uHi, step float64
	points         int
	best           int
	bestF          float64
	err            error
}

// u returns the i-th grid coordinate, with the last point pinned to uHi
// exactly as GridRefine does.
func (g *tGrid) u(i int) float64 {
	if i == g.points-1 {
		return g.uHi
	}
	return g.uLo + float64(i)*g.step
}

func newProber(opts PatternOptions, brent bool) *prober {
	return &prober{
		opts:   opts,
		brent:  brent,
		probes: make([]probe, 0, opts.GridP+64),
		index:  make(map[float64]int, opts.GridP+64),
	}
}

// pattern solves the joint problem for m with the outer P search on
// [pLo, pHi] (gridP log-grid points), then applies the integer rounding
// and the final inner probe at P*. An outer search without a finite
// probe is errNoFeasibleP.
func (pr *prober) pattern(m core.Model, pLo, pHi float64, gridP int) (PatternResult, error) {
	pr.m = m
	pr.probes = pr.probes[:0]
	clear(pr.index)
	pr.evals = 0
	outer, err := pr.minimizeP(pLo, pHi, gridP)
	if err != nil {
		return PatternResult{}, errNoFeasibleP
	}
	opts := pr.opts
	pStar := outer.X
	atBound := pStar >= opts.PMax*(1-1e-6)
	if opts.IntegerP && !atBound {
		pStar = BetterInteger(pr.value, pStar, opts.PMin, opts.PMax)
	}
	inner := pr.finish(pStar)
	if inner.grid.err != nil {
		return PatternResult{}, inner.grid.err
	}
	return PatternResult{
		Solution: core.Solution{
			T:        inner.t,
			P:        pStar,
			Overhead: inner.h,
			Method:   "numerical",
			Class:    pr.m.Res.Classify().Class,
		},
		AtPBound: atBound,
		Evals:    pr.evals,
	}, nil
}

// minimizeP is GridRefine (golden) or GridBrentLog (Brent) over g(P) on
// a log axis, with the two-phase pruning of the grid scan. The grid
// points, the argmin, the refinement bracket and every refinement probe
// are those of the plain scan.
func (pr *prober) minimizeP(pLo, pHi float64, points int) (Result, error) {
	if !(pHi > pLo) || !(pLo > 0) {
		return Result{}, errGridBounds
	}
	if points < 3 {
		return Result{}, errGridPoints
	}
	grid := tGrid{uLo: math.Log(pLo), uHi: math.Log(pHi), points: points}
	grid.step = (grid.uHi - grid.uLo) / float64(points-1)

	// Phase 1: certified inner grid scans and lower bounds at every P.
	pr.gridAt = pr.gridAt[:0]
	bestGrid := math.Inf(1)
	for i := 0; i < points; i++ {
		k := pr.scanned(math.Exp(grid.u(i)))
		pr.gridAt = append(pr.gridAt, k)
		if g := &pr.probes[k].grid; g.err == nil && g.bestF < bestGrid {
			bestGrid = g.bestF
		}
	}
	// Phase 2: the grid argmin over refined values. A probe whose bound
	// exceeds bestGrid refines to more than some other probe's refined
	// value (which is at most its grid value), so it is neither the
	// first minimum nor tied with it.
	bestI, bestF := 0, math.Inf(1)
	for i, k := range pr.gridAt {
		if pb := &pr.probes[k]; pb.grid.err != nil || pb.lb > bestGrid {
			continue
		}
		if v := pr.value(math.Exp(grid.u(i))); v < bestF {
			bestI, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return Result{}, errGridAllInf
	}

	obj := func(u float64) float64 { return pr.value(math.Exp(u)) }
	a := grid.u(max(bestI-1, 0))
	b := grid.u(min(bestI+1, points-1))
	var res Result
	if pr.brent {
		res = BrentMin(obj, a, b, pr.opts.Tol, 0)
	} else {
		res = Golden(obj, a, b, pr.opts.Tol, 0)
	}
	if bestF < res.F {
		res.X, res.F = grid.u(bestI), bestF
	}
	res.X = math.Exp(res.X)
	return res, nil
}

// value is g(P) = min_T H(T, P), +Inf when the inner search fails.
func (pr *prober) value(p float64) float64 {
	pb := pr.finish(p)
	if pb.grid.err != nil {
		return math.Inf(1)
	}
	return pb.h
}

// scanned returns the memo slot of p after phase 1 (the certified inner
// grid scan and its lower bound), running it on first sight.
func (pr *prober) scanned(p float64) int {
	if k, ok := pr.index[p]; ok {
		return k
	}
	fz := pr.m.Freeze(p)
	g, lb := pr.scanT(&fz, true)
	return pr.store(p, probe{grid: g, lb: lb})
}

// finish returns the fully refined probe at p, reusing whatever phase of
// it already ran.
func (pr *prober) finish(p float64) *probe {
	k, ok := pr.index[p]
	if ok && pr.probes[k].done {
		return &pr.probes[k]
	}
	fz := pr.m.Freeze(p)
	if !ok {
		g, _ := pr.scanT(&fz, false)
		k = pr.store(p, probe{grid: g, lb: math.Inf(-1)})
	}
	pb := &pr.probes[k]
	pb.done = true
	if pb.grid.err == nil {
		res := refineT(&fz, &pb.grid, pr.opts.Tol, pr.brent)
		pr.evals += res.Evals
		pb.t, pb.h = res.X, res.F
	}
	return pb
}

func (pr *prober) store(p float64, pb probe) int {
	pr.probes = append(pr.probes, pb)
	k := len(pr.probes) - 1
	pr.index[p] = k
	return k
}

// scanT is phase 1 of the inner period search at one P: the certified
// grid argmin over the Theorem 1 seed bracket [T*_P/1e3, T*_P·1e3] (the
// exact optimum sits within a small factor of the first-order period
// whenever the approximation is anywhere near valid), falling back to
// the full period box at twice the resolution when the seed bracket is
// empty or infeasible. withLB adds the refinement lower bound.
func (pr *prober) scanT(fz *core.Frozen, withLB bool) (tGrid, float64) {
	o := pr.opts
	lo, hi := o.TMin, o.TMax
	if seed := fz.OptimalPeriod(); !math.IsInf(seed, 0) && seed > 0 {
		lo = math.Max(o.TMin, seed/1e3)
		hi = math.Min(o.TMax, seed*1e3)
		if !(hi > lo) {
			lo, hi = o.TMin, o.TMax
		}
	}
	margin := certMargin(fz)
	g, lb := pr.scanGrid(fz, math.Log(lo), math.Log(hi), o.GridT, margin, withLB)
	if g.err != nil {
		g, lb = pr.scanGrid(fz, math.Log(o.TMin), math.Log(o.TMax), 2*o.GridT, margin, withLB)
	}
	return g, lb
}

// scanGrid runs one certified grid scan of fz.OverheadLog on points
// log-period samples of [uLo, uHi].
func (pr *prober) scanGrid(fz *core.Frozen, uLo, uHi float64, points int, margin float64, withLB bool) (tGrid, float64) {
	if !(uHi > uLo) {
		return tGrid{err: errGridBounds}, 0
	}
	if points < 3 {
		return tGrid{err: errGridPoints}, 0
	}
	// The overhead's overflow exponent is monotone in the period, so an
	// overflow at the grid's low edge proves every grid point is +Inf:
	// reject the whole bracket after one probe (this is what the P-grid's
	// deep failure-dominated tail costs otherwise).
	if fz.OverflowsBeyond(uLo) {
		return tGrid{err: errGridAllInf}, 0
	}
	if cap(pr.vals) < points {
		pr.vals = make([]float64, points)
	}
	sc := gridScan{
		grid: tGrid{uLo: uLo, uHi: uHi, step: (uHi - uLo) / float64(points-1), points: points},
		v:    pr.vals[:points],
	}
	// Start with the empty range just above the centre index.
	sc.hi = (points - 1) / 2
	sc.lo = sc.hi + 1
	g := &sc.grid
	g.best, g.bestF = sc.argmin(fz, margin)
	lb := math.Inf(-1)
	if math.IsInf(g.bestF, 1) {
		g.err = errGridAllInf
	} else if withLB {
		// The grid best is itself a refinement candidate; capping at it
		// keeps the best grid probe out of the pruning whatever rounding
		// does to the secants.
		lb = math.Min(sc.lowerBound(fz, margin), g.bestF)
	}
	pr.evals += sc.evals
	return *g, lb
}

// refineT polishes the bracket around a grid argmin (golden section or
// bounded Brent, in u = log T) and returns T in natural coordinates.
// The grid best wins ties and plateaus.
func refineT(fz *core.Frozen, g *tGrid, tol float64, brent bool) Result {
	a := g.u(max(g.best-1, 0))
	b := g.u(min(g.best+1, g.points-1))
	var res Result
	if brent {
		res = BrentMin(fz.OverheadLog, a, b, tol, 0)
	} else {
		res = goldenFrozen(fz, a, b, tol)
	}
	if g.bestF < res.F {
		res.X, res.F = g.u(g.best), g.bestF
	}
	res.X = math.Exp(res.X)
	return res
}

// goldenFrozen is Golden specialized to the frozen overhead kernel: every
// objective evaluation is a static call to Frozen.OverheadLog instead of
// a closure dispatch, which is measurable at the optimizer's call rate.
// The probe sequence, tie-breaking and convergence test replicate Golden
// exactly (the determinism goldens pin the equivalence).
func goldenFrozen(fz *core.Frozen, a, b, tol float64) Result {
	if tol <= 0 {
		tol = 1e-10
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := fz.OverheadLog(x1), fz.OverheadLog(x2)
	evals := 2
	converged := false
	for i := 0; i < 200; i++ {
		if b-a <= tol*(1+math.Abs(a)+math.Abs(b)) {
			converged = true
			break
		}
		if f1 <= f2 { // keep [a, x2]
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = fz.OverheadLog(x1)
		} else { // keep [x1, b]
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = fz.OverheadLog(x2)
		}
		evals++
	}
	if f1 > f2 {
		return Result{X: x2, F: f2, Evals: evals, Converged: converged}
	}
	return Result{X: x1, F: f1, Evals: evals, Converged: converged}
}

// certMargin is the relative margin by which both neighbours of a grid
// minimum must exceed it before the certificate accepts it.
//
// Error model: the computed OverheadLog(u) equals an exactly
// quasi-convex function of t = fl(e^u) (E is convex in t for the frozen
// constants) up to a relative error ε. The rounding of each expm1
// argument is amplified by at most the argument (< 710 before overflow),
// which bounds the pre-subtraction error by ~2.2e3 ulp < 2^-40; the
// subtraction expR·grow − expC·shrink of the full branch multiplies it by
// its condition number κ ≤ 1 + 2λs/λf. So ε ≤ 2^-40·κ (the λf → 0 limit
// branch sums positive terms: κ = 1). If both neighbours exceed f_b by
// m ≥ 2ε/(1−ε), every exact grid value away from b exceeds the exact f_b
// and every computed one exceeds the computed f_b, so the full scan's
// first strict minimum is b. The margin is 2^-36·κ (8× that bound),
// floored at 1e-9; a λf ≪ λs model gets a margin so large that it always
// takes the full scan.
func certMargin(fz *core.Frozen) float64 {
	kappa := 1.0
	if fz.LambdaF > 0 {
		kappa += 2 * fz.LambdaS / fz.LambdaF
	}
	return math.Max(1e-9, 0x1p-36*kappa)
}

// gridScan evaluates one inner grid lazily, caching the contiguous index
// range [lo, hi] evaluated so far (empty while lo > hi). The kernel is
// passed to each method rather than stored, so a stack-compiled Frozen
// never escapes through the returned grid.
type gridScan struct {
	grid   tGrid
	v      []float64
	lo, hi int
	evals  int
}

func (s *gridScan) f(fz *core.Frozen, i int) float64 {
	for s.lo > i {
		s.lo--
		s.v[s.lo] = fz.OverheadLog(s.grid.u(s.lo))
		s.evals++
	}
	for s.hi < i {
		s.hi++
		s.v[s.hi] = fz.OverheadLog(s.grid.u(s.hi))
		s.evals++
	}
	return s.v[i]
}

// argmin returns the index and value of the first strict minimum over
// the grid — what a full scan returns — by the certified descent when it
// holds, and by the full scan over cached values otherwise.
func (s *gridScan) argmin(fz *core.Frozen, margin float64) (int, float64) {
	n := s.grid.points
	c := (n - 1) / 2
	b := c
	for b+1 < n && s.f(fz, b+1) < s.f(fz, b) {
		b++
	}
	if b == c {
		for b > 0 && s.f(fz, b-1) < s.f(fz, b) {
			b--
		}
	}
	// Both neighbours were evaluated by the descent's stopping tests.
	if fb := s.f(fz, b); fb > 0 && !math.IsInf(fb, 1) {
		thr := fb * (1 + margin)
		if (b == 0 || s.f(fz, b-1) > thr) && (b == n-1 || s.f(fz, b+1) > thr) {
			return b, fb
		}
	}
	best, bestF := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if v := s.f(fz, i); v < bestF {
			best, bestF = i, v
		}
	}
	return best, bestF
}

// lowerBound bounds from below every value OverheadLog takes on the
// refinement bracket [u_{b−1}, u_{b+1}] around the certified argmin b.
//
// G(t) = H(t)·t = E(t)·H(P) is convex in t, so on each grid interval
// next to b it lies above the secants of the two neighbouring intervals
// extended into it: G ≥ max(L1, L2) on [t_{b−1}, t_b] with L1 through
// b−2, b−1 and L2 through b, b+1 (mirrored on the right). Each line L
// bounds H = G/t by L(t)/t = s + c/t, monotone in t, so the minimum of
// the max over an interval sits at an endpoint or where the two lines
// cross. Every line is lowered by margin × its extrapolation weights to
// absorb the kernel's rounding error (see certMargin). An interval with
// no usable line (grid edge, +Inf neighbour) makes the bound -Inf.
func (s *gridScan) lowerBound(fz *core.Frozen, margin float64) float64 {
	b, n := s.grid.best, s.grid.points
	var t, G [5]float64 // grid points b−2 … b+2; G = +Inf where absent
	for j := range t {
		i := b - 2 + j
		G[j] = math.Inf(1)
		if i >= 0 && i < n {
			t[j] = math.Exp(s.grid.u(i))
			G[j] = s.f(fz, i) * t[j]
		}
	}
	lb := math.Inf(1)
	if b > 0 { // left interval [t_{b−1}, t_b]
		lb = math.Min(lb, boundOn(t[1], t[2],
			secant(t[0], G[0], t[1], G[1], t[2], margin),
			secant(t[2], G[2], t[3], G[3], t[1], margin)))
	}
	if b < n-1 { // right interval [t_b, t_{b+1}]
		lb = math.Min(lb, boundOn(t[2], t[3],
			secant(t[1], G[1], t[2], G[2], t[3], margin),
			secant(t[3], G[3], t[4], G[4], t[2], margin)))
	}
	return lb
}

// line is G ≥ s·t + c, so H ≥ s + c/t; ok is false for an unusable
// secant.
type line struct {
	s, c float64
	ok   bool
}

// secant is the line through (t1, G1), (t2, G2), lowered by
// margin·(|w1|·G1 + |w2|·G2) — the error its interpolation weights carry
// at tFar, the far end of the interval it bounds.
func secant(t1, G1, t2, G2, tFar, margin float64) line {
	if math.IsInf(G1, 0) || math.IsInf(G2, 0) || !(t2 > t1) {
		return line{}
	}
	s := (G2 - G1) / (t2 - t1)
	w2 := (tFar - t1) / (t2 - t1)
	slack := margin * (math.Abs((1-w2)*G1) + math.Abs(w2*G2))
	return line{s: s, c: G1 - s*t1 - slack, ok: !math.IsInf(slack, 0) && !math.IsNaN(slack)}
}

// boundOn returns min over t ∈ [tl, tr] of max(l1, l2)(t)/t, -Inf when
// neither line is usable.
func boundOn(tl, tr float64, l1, l2 line) float64 {
	h := func(t float64) float64 {
		v := math.Inf(-1)
		if l1.ok {
			v = l1.s + l1.c/t
		}
		if l2.ok {
			v = math.Max(v, l2.s+l2.c/t)
		}
		return v
	}
	lb := math.Min(h(tl), h(tr))
	if l1.ok && l2.ok && l1.s != l2.s {
		if tx := (l1.c - l2.c) / (l2.s - l1.s); tx > tl && tx < tr {
			lb = math.Min(lb, h(tx))
		}
	}
	return lb
}

// Shared error values of the frozen grid scans (allocated once; the
// infeasible-grid rejection fires on every deep-tail P probe).
var (
	errGridBounds  = errors.New("optimize: GridRefine needs hi > lo")
	errGridPoints  = errors.New("optimize: GridRefine needs at least 3 grid points")
	errGridAllInf  = errors.New("optimize: objective is +Inf over the whole grid")
	errNoFeasibleP = errors.New("optimize: no feasible pattern in the search box")
)
