package sim

import (
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/xmath"
)

func TestNewMachineValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	if _, err := NewMachine(m, 0, 512); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewMachine(m, 100, 0); err == nil {
		t.Error("P=0 accepted")
	}
	bad := m
	bad.SilentFrac = 2
	if _, err := NewMachine(bad, 100, 512); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestMachineProcs(t *testing.T) {
	for _, tc := range []struct {
		p     float64
		procs float64
		ok    bool
	}{
		{207.21, 207, true},
		{207.5, 208, true},
		{0.3, 1, true},
		{-5, 1, true},
		{math.NaN(), 1, true},
		{MaxMachineProcs, MaxMachineProcs, true},
		{MaxMachineProcs + 0.4, MaxMachineProcs, true},
		{MaxMachineProcs + 0.5, MaxMachineProcs + 1, false},
		{3.2e12, 3.2e12, false},
		{math.Inf(1), math.Inf(1), false},
	} {
		procs, ok := MachineProcs(tc.p)
		if procs != tc.procs || ok != tc.ok {
			t.Errorf("MachineProcs(%g) = (%g, %v), want (%g, %v)", tc.p, procs, ok, tc.procs, tc.ok)
		}
	}
}

func TestMachineErrorFree(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	m.LambdaInd = 0
	mc, err := NewMachine(m, 6000, 512)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mc.SimulateRun(50, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * (6000 + 15.4 + 300)
	if !xmath.EqualWithin(st.Elapsed, want, 1e-9, 0) {
		t.Errorf("error-free elapsed %g, want %g", st.Elapsed, want)
	}
	if st.FailStops != 0 || st.SilentDetections != 0 {
		t.Errorf("phantom errors: %+v", st)
	}
}

func TestMachineTheoreticalRate(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	mc, err := NewMachine(m, 6000, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.EqualWithin(mc.TheoreticalPlatformRate(), 512*1.69e-8, 1e-12, 0) {
		t.Errorf("platform rate = %g", mc.TheoreticalPlatformRate())
	}
}

// The central cross-validation: the machine-level simulator (P explicit
// exponential processors) and the pattern-level simulator (aggregated
// platform rate) must agree on the mean pattern time within confidence
// intervals — this is Proposition 1.2 of [13] made executable.
func TestMachineAgreesWithProtocol(t *testing.T) {
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.LambdaInd = 2e-6 // frequent errors on 64 procs keep the test fast
	tt := 2000.0
	const procs = 64

	cfgM := RunConfig{Runs: 150, Patterns: 40, Seed: 21, Machine: true}
	machine, err := Simulate(m, tt, procs, cfgM)
	if err != nil {
		t.Fatal(err)
	}
	cfgP := RunConfig{Runs: 150, Patterns: 40, Seed: 22}
	proto, err := Simulate(m, tt, procs, cfgP)
	if err != nil {
		t.Fatal(err)
	}

	dm := machine.MeanPatternTime
	dp := proto.MeanPatternTime
	sep := math.Abs(dm.Mean - dp.Mean)
	if sep > 3*(dm.CI95+dp.CI95) {
		t.Errorf("machine %g ± %g vs protocol %g ± %g: simulators disagree",
			dm.Mean, dm.CI95, dp.Mean, dp.CI95)
	}

	// Both must also match the exact formula.
	exact := m.ExactPatternTime(tt, procs)
	if math.Abs(dm.Mean-exact) > 4*dm.CI95 {
		t.Errorf("machine sim %g ± %g vs Proposition 1 %g", dm.Mean, dm.CI95, exact)
	}

	// And both exercise all error paths.
	if machine.FailStops == 0 || machine.SilentDetections == 0 {
		t.Errorf("machine error paths unexercised: %+v", machine)
	}
}

func TestMachineErrorCountsScaleWithProcs(t *testing.T) {
	// With f = 1 (every arrival counted individually) and D = 0 (no
	// unexposed time), the observed fail-stop rate per unit time must
	// equal P·λ_ind, so doubling P doubles it.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 1, 0
	m.Res.Downtime = 0
	m.LambdaInd = 1e-6
	run := func(procs int) float64 {
		mc, err := NewMachine(m, 2000, procs)
		if err != nil {
			t.Fatal(err)
		}
		var events, elapsed float64
		for seed := uint64(0); seed < 40; seed++ {
			st, err := mc.SimulateRun(300, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			events += float64(st.FailStops)
			elapsed += st.Elapsed
		}
		return events / elapsed
	}
	r64 := run(64)
	r128 := run(128)
	// Each observed rate individually matches P·λ_ind (≈1800 and ≈3600
	// events aggregated: sampling σ ≈ 2.4% and 1.7%)…
	if math.Abs(r64-64e-6)/64e-6 > 0.10 {
		t.Errorf("64-proc fail-stop rate = %g, want %g", r64, 64e-6)
	}
	if math.Abs(r128-128e-6)/128e-6 > 0.10 {
		t.Errorf("128-proc fail-stop rate = %g, want %g", r128, 128e-6)
	}
	// …and the ratio is 2.
	ratio := r128 / r64
	if ratio < 1.85 || ratio > 2.15 {
		t.Errorf("error rate ratio 128/64 procs = %g, want ≈2", ratio)
	}
}

func TestMachineSilentProtectedPhases(t *testing.T) {
	// With s = 1 (no fail-stop), errors arriving during V/C/R must be
	// discarded: in a configuration where the checkpoint dwarfs the
	// computation, the number of detections per pattern must match
	// e^{λs·T} − 1, counting only computation-time exposure.
	m := heraModel(t, costmodel.Scenario3, 0.1)
	m.FailStopFrac, m.SilentFrac = 0, 1
	m.LambdaInd = 5e-6
	// T = 300 s of work vs C = 300 s of checkpoint: exposure is halved.
	tt := 300.0
	const procs = 64
	mc, err := NewMachine(m, tt, procs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mc.SimulateRun(4000, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	_, ls := m.Rates(procs)
	want := math.Expm1(ls * tt)
	got := float64(st.SilentDetections) / float64(st.Patterns)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("detections per pattern = %g, want %g (silent must not strike V/C)", got, want)
	}
}

func TestMachineRunValidation(t *testing.T) {
	m := heraModel(t, costmodel.Scenario1, 0.1)
	mc, err := NewMachine(m, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.SimulateRun(0, rng.New(1)); err == nil {
		t.Error("0 patterns accepted")
	}
	if _, err := mc.SimulateRun(10, nil); err == nil {
		t.Error("nil rng accepted")
	}
}
