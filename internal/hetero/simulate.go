package hetero

import (
	"context"

	"amdahlyd/internal/core"
	"amdahlyd/internal/sim"
)

// RunPlan lowers a plan to the simulator, one sim.HeteroGroupRun per
// entry: the group's comm-charged model at the plan's active count
// (len(plan), as in every PatternResult), its pattern and its work
// fraction. It is the one plan lowering: SimulatePlan prices through
// it, and the service derives its per-group predictions from the same
// models.
func RunPlan(hm core.HeteroModel, plan []GroupPlan) ([]sim.HeteroGroupRun, error) {
	runs := make([]sim.HeteroGroupRun, len(plan))
	for i, gp := range plan {
		m, err := hm.ActiveModel(gp.Group, len(plan))
		if err != nil {
			return nil, err
		}
		runs[i] = sim.HeteroGroupRun{Model: m, T: gp.T, P: gp.P, Fraction: gp.Fraction}
	}
	return runs, nil
}

// SimulatePlan prices a plan by Monte-Carlo: RunPlan, then
// sim.SimulateHeteroContext. The service, the campaign executor and the
// heterogeneous study all call it.
func SimulatePlan(ctx context.Context, hm core.HeteroModel, plan []GroupPlan, cfg sim.RunConfig) (sim.HeteroRunResult, error) {
	runs, err := RunPlan(hm, plan)
	if err != nil {
		return sim.HeteroRunResult{}, err
	}
	return sim.SimulateHeteroContext(ctx, runs, cfg)
}
