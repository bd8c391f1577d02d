package core

import (
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
)

// relErr returns |a−b| / max(|a|, |b|, 1), treating equal infinities and
// NaN pairs as a perfect match.
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// TestFrozenMatchesModel is the frozen-engine equivalence property test:
// across random (T, P, scenario, α) draws, every Frozen method must agree
// with its Model counterpart to ≤ 1e-12 relative error (they are designed
// to be bit-exact; the tolerance only guards the test against future
// regressions that re-order arithmetic).
func TestFrozenMatchesModel(t *testing.T) {
	r := rng.New(0xF0F0)
	platforms := []struct {
		lambda, f  float64
		procs      float64
		cost, vqst float64
	}{
		{1.69e-8, 0.2188, 512, 300, 15.4},
		{1.62e-8, 0.0625, 1024, 439, 9.1},
		{2.34e-9, 0.1667, 2048, 1051, 4.5},
		{2.34e-9, 0.1667, 2048, 2500, 180},
	}

	checked := 0
	for trial := 0; trial < 4000; trial++ {
		pl := platforms[r.Intn(len(platforms))]
		sc := costmodel.AllScenarios[r.Intn(len(costmodel.AllScenarios))]
		downtime := []float64{0, 60, 3600}[r.Intn(3)]
		res, err := sc.Calibrate(pl.procs, pl.cost, pl.vqst, downtime)
		if err != nil {
			t.Fatal(err)
		}

		alpha := []float64{0, 1e-4, 1e-2, 0.1, 0.5}[r.Intn(5)]
		var profile speedup.Profile
		if alpha == 0 {
			profile = speedup.PerfectlyParallel{}
		} else {
			profile = speedup.Amdahl{Alpha: alpha}
		}

		// λ_ind spread over the paper's sweep range 1e-12 … 1e-8.
		lambda := pl.lambda * math.Pow(10, -2+4*r.Float64())
		m := Model{
			LambdaInd:    lambda,
			FailStopFrac: pl.f,
			SilentFrac:   1 - pl.f,
			Res:          res,
			Profile:      profile,
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}

		// P spans 1 … 1e12 (the α = 0 sweeps reach that far), T spans
		// microseconds to ~30 years, both log-uniform.
		p := math.Pow(10, 12*r.Float64())
		period := math.Pow(10, -6+15*r.Float64())
		fz := m.Freeze(p)

		pairs := []struct {
			name          string
			frozen, model float64
		}{
			{"PatternTime", fz.PatternTime(period), m.ExactPatternTime(period, p)},
			{"Overhead", fz.Overhead(period), m.Overhead(period, p)},
			{"OverheadLog", fz.OverheadLog(math.Log(period)), m.Overhead(math.Exp(math.Log(period)), p)},
			{"FirstOrderPatternTime", fz.FirstOrderPatternTime(period), m.FirstOrderPatternTime(period, p)},
			{"OptimalPeriod", fz.OptimalPeriod(), m.OptimalPeriodFixedP(p)},
			{"OverheadAtOptimalPeriod", fz.OverheadAtOptimalPeriod(), m.OverheadAtOptimalPeriod(p)},
			{"ErrorFreeOverhead", fz.ErrorFreeOverhead(period), m.ErrorFreeOverhead(period, p)},
			{"ProfileOverhead", fz.ProfileOverhead(), m.Profile.Overhead(p)},
		}
		for _, pair := range pairs {
			if e := relErr(pair.frozen, pair.model); !(e <= 1e-12) {
				t.Fatalf("%s mismatch at P=%g, T=%g, α=%g, %v, D=%g, λ=%g: frozen=%g model=%g (rel err %g)",
					pair.name, p, period, alpha, sc, downtime, lambda,
					pair.frozen, pair.model, e)
			}
			checked++
		}

		// OverflowsBeyond must only ever claim +Inf regions.
		if u := math.Log(period); fz.OverflowsBeyond(u) && !math.IsInf(fz.Overhead(period), 1) {
			t.Fatalf("OverflowsBeyond(%g) true but Overhead finite at P=%g", u, p)
		}
	}
	if checked == 0 {
		t.Fatal("no comparisons performed")
	}
}

// TestFrozenBitExact pins the stronger design goal on the paper's own
// operating points: Frozen is not just close to Model, it is bit-identical
// (the optimizer's probe sequence and therefore every published figure
// depends on this).
func TestFrozenBitExact(t *testing.T) {
	res, err := costmodel.Scenario1.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	for _, p := range []float64{1, 219, 512, 1e4, 1e8} {
		fz := m.Freeze(p)
		for _, period := range []float64{1e-3, 60, 6240, 1e6, 1e10} {
			if got, want := fz.PatternTime(period), m.ExactPatternTime(period, p); got != want {
				t.Errorf("PatternTime(%g) at P=%g: %b != %b", period, p, got, want)
			}
			if got, want := fz.Overhead(period), m.Overhead(period, p); got != want {
				t.Errorf("Overhead(%g) at P=%g: %b != %b", period, p, got, want)
			}
		}
	}
}

// TestFrozenOverflowsBeyondMonotone checks the monotonicity contract that
// the infeasible-grid rejection relies on: once OverflowsBeyond reports
// true at u, the overhead is +Inf at every probed u' ≥ u.
func TestFrozenOverflowsBeyondMonotone(t *testing.T) {
	res, err := costmodel.Scenario1.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	fz := m.Freeze(1e11) // deep failure-dominated regime
	uStart := math.Log(1e-6)
	for u := uStart; u < 30; u += 0.25 {
		if fz.OverflowsBeyond(u) {
			for du := 0.0; du < 40; du += 0.5 {
				if !math.IsInf(fz.Overhead(math.Exp(u+du)), 1) {
					t.Fatalf("overhead finite at u=%g beyond overflow point u=%g", u+du, u)
				}
			}
			return
		}
	}
	t.Skip("no overflow point found in probe range (platform too reliable)")
}

// FuzzFrozenOverheadLog pins the fused log-period kernel to the
// specification: Frozen.OverheadLog(u) must equal Model.Overhead(e^u, P)
// bit for bit for every valid model, P ≥ 1 and u. The optimizer's
// certified grid scans rest on this (their error model is stated for the
// specification's formula). The seed corpus is in testdata/fuzz.
func FuzzFrozenOverheadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, lambda, fs float64, scenario uint8, downtime, alpha, p, u float64) {
		sc := costmodel.AllScenarios[int(scenario)%len(costmodel.AllScenarios)]
		res, err := sc.Calibrate(512, 300, 15.4, downtime)
		if err != nil {
			t.Skip()
		}
		var profile speedup.Profile = speedup.Amdahl{Alpha: alpha}
		if alpha == 0 {
			profile = speedup.PerfectlyParallel{}
		}
		m := Model{LambdaInd: lambda, FailStopFrac: fs, SilentFrac: 1 - fs, Res: res, Profile: profile}
		if m.Validate() != nil || !(alpha >= 0 && alpha <= 1) || !(p >= 1) || math.IsInf(p, 1) {
			t.Skip()
		}
		fz := m.Freeze(p)
		got, want := fz.OverheadLog(u), m.Overhead(math.Exp(u), p)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("OverheadLog(%v) = %v, Model.Overhead(e^u, %v) = %v", u, got, p, want)
		}
	})
}
