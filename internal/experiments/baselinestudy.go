package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/baselines"
	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
)

// BaselineCell compares tuning policies on one platform: what a
// fail-stop-only Young/Daly tuning costs against the paper's VC-aware
// optimum, everything priced by simulation under the full error model.
type BaselineCell struct {
	Platform string
	Scenario costmodel.Scenario
	// Optimal is the exact-model numerical optimum (the paper).
	Optimal Eval
	// Young and Daly use the numerical P* but set the period from the
	// fail-stop-only formulas [20], [9].
	Young Eval
	Daly  Eval
	// Relaxation is the iterative-relaxation allocation [14].
	Relaxation Eval
	// YoungAssumedH is what the fail-stop-only analysis believes the
	// Young plan costs — the gap to Young.SimulatedH is the price of
	// ignoring silent errors in the model.
	YoungAssumedH float64
}

// BaselineStudyResult is the cross-platform baseline comparison: the
// motivation quantified — how much of the overhead reduction comes from
// modelling silent errors at all.
type BaselineStudyResult struct {
	Cells []BaselineCell
	Cfg   Config
}

// BaselineStudyContext runs the comparison on the given platforms
// under one scenario at α = cfg.Alpha.
//
// The numerical optima are solved as one warm-start chain across the
// platform list (the scenario — and hence the objective class — is
// fixed, so adjacent platforms bracket each other; see
// optimize.SweepSolver).
func BaselineStudyContext(ctx context.Context, platforms []platform.Platform, sc costmodel.Scenario, cfg Config) (*BaselineStudyResult, error) {
	cfg = cfg.withDefaults()
	models := make([]core.Model, len(platforms))
	for i, pl := range platforms {
		m, err := BuildModel(pl, sc, cfg.Alpha, cfg.Downtime)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	nums, err := optimize.BatchOptimalPattern(models, optimize.SweepOptions{Cold: cfg.ColdSolve})
	if err != nil {
		return nil, fmt.Errorf("experiments: optimizing baselines/%v: %w", sc, err)
	}
	cells := make([]BaselineCell, len(platforms))
	err = parallelFor(ctx, len(platforms), cfg.Workers, func(ctx context.Context, i int) error {
		pl := platforms[i]
		label := fmt.Sprintf("baselines/%s/%v", pl.Name, sc)
		m, num := models[i], nums[i]
		opt, err := simulateEval(ctx, m, num.Solution, num.AtPBound, cfg, label+"/optimal")
		if err != nil {
			return err
		}

		young, err := baselines.PlanYoung(m, num.P)
		if err != nil {
			return err
		}
		youngEval, err := simulateEval(ctx, m, solutionAt(young.T, num.P), false, cfg, label+"/young")
		if err != nil {
			return err
		}
		youngEval.Method = "young"

		daly, err := baselines.PlanDaly(m, num.P)
		if err != nil {
			return err
		}
		dalyEval, err := simulateEval(ctx, m, solutionAt(daly.T, num.P), false, cfg, label+"/daly")
		if err != nil {
			return err
		}
		dalyEval.Method = "daly"

		relax, _, err := baselines.IterativeRelaxation(m, 0, 0)
		if err != nil {
			return err
		}
		relaxEval, err := simulateEval(ctx, m, relax, false, cfg, label+"/relaxation")
		if err != nil {
			return err
		}

		cells[i] = BaselineCell{
			Platform:      pl.Name,
			Scenario:      sc,
			Optimal:       opt,
			Young:         youngEval,
			Daly:          dalyEval,
			Relaxation:    relaxEval,
			YoungAssumedH: young.AssumedOverhead,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BaselineStudyResult{Cells: cells, Cfg: cfg}, nil
}

// Render writes the comparison table. The "Young believes" column shows
// the overhead the fail-stop-only model predicts for its own plan; the
// gap to "Young actual" is the modelling error caused by silent errors.
func (r *BaselineStudyResult) Render(w io.Writer) error {
	tb := report.NewTable(
		fmt.Sprintf("Baseline comparison — %v, α=%g (simulated overheads, full error model)",
			r.Cells[0].Scenario, r.Cfg.Alpha),
		"platform", "VC optimal", "Young actual", "Young believes",
		"Daly actual", "relaxation", "Young excess")
	for _, c := range r.Cells {
		excess := (c.Young.SimulatedH - c.Optimal.SimulatedH) / c.Optimal.SimulatedH * 100
		tb.AddRow(c.Platform,
			report.Fmt(c.Optimal.SimulatedH),
			report.Fmt(c.Young.SimulatedH),
			report.Fmt(c.YoungAssumedH),
			report.Fmt(c.Daly.SimulatedH),
			report.Fmt(c.Relaxation.SimulatedH),
			fmt.Sprintf("+%.2f%%", excess))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// WriteCSV emits the comparison in long form.
func (r *BaselineStudyResult) WriteCSV(w io.Writer) error {
	var series []report.Series
	add := func(name string, get func(BaselineCell) float64) {
		s := report.Series{Name: name}
		for i, c := range r.Cells {
			s.Add(float64(i), get(c))
		}
		series = append(series, s)
	}
	add("overhead_optimal", func(c BaselineCell) float64 { return c.Optimal.SimulatedH })
	add("overhead_young", func(c BaselineCell) float64 { return c.Young.SimulatedH })
	add("overhead_young_assumed", func(c BaselineCell) float64 { return c.YoungAssumedH })
	add("overhead_daly", func(c BaselineCell) float64 { return c.Daly.SimulatedH })
	add("overhead_relaxation", func(c BaselineCell) float64 { return c.Relaxation.SimulatedH })
	return report.WriteSeriesCSV(w, "platform_index", "value", series...)
}
