package hetero

import (
	"context"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/sim"
)

// TestSimulatePlanMatchesLowering pins the plan lowering: every entry is
// priced on its group's comm-charged model at the plan's active count,
// and SimulatePlan is bit-identical to simulating that lowering directly.
func TestSimulatePlanMatchesLowering(t *testing.T) {
	hm := compile(t, heraAccel(1e-5), costmodel.Scenario1, 0.1, 3600)
	res, err := OptimalPattern(hm, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Active != 2 {
		t.Fatalf("reference plan has %d active groups, want 2", res.Active)
	}
	runs, err := RunPlan(hm, res.Groups)
	if err != nil {
		t.Fatal(err)
	}
	for i, gp := range res.Groups {
		m, err := hm.ActiveModel(gp.Group, res.Active)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.HeteroGroupRun{Model: m, T: gp.T, P: gp.P, Fraction: gp.Fraction}
		if runs[i] != want {
			t.Errorf("entry %d lowered to %+v, want %+v", i, runs[i], want)
		}
	}

	cfg := sim.RunConfig{Runs: 12, Patterns: 10, Seed: 3, Workers: 2}
	want, err := sim.SimulateHeteroContext(context.Background(), runs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulatePlan(context.Background(), hm, res.Groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overhead != want.Overhead || got.FailStops != want.FailStops ||
		got.SilentDetections != want.SilentDetections || got.Recoveries != want.Recoveries {
		t.Errorf("SimulatePlan diverges from its lowering:\n got %+v\nwant %+v", got, want)
	}

	bad := append([]GroupPlan{}, res.Groups...)
	bad[0].Group = len(hm.Groups)
	if _, err := SimulatePlan(context.Background(), hm, bad, cfg); err == nil {
		t.Error("out-of-range group index accepted")
	}
}
