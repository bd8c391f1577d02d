package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
)

// Fig2Cell is one (platform, scenario) cell of Fig. 2: the first-order and
// numerical optimal patterns with predicted and simulated overheads.
type Fig2Cell struct {
	Platform   string
	Scenario   costmodel.Scenario
	FirstOrder *Eval // nil in scenario 6 (no first-order optimum)
	Optimal    *Eval
}

// Fig2Result holds the full Fig. 2 data: for each platform and each of the
// six scenarios, P*, T* and execution overhead (first-order vs numerical,
// predicted vs simulated) at α = 0.1.
type Fig2Result struct {
	Cells []Fig2Cell
	Cfg   Config
}

// Fig2Context reproduces Fig. 2 on the given platforms (the paper uses
// all four of Table II). A done ctx aborts in-flight Monte-Carlo
// campaigns and skips undispatched cells.
//
// The numerical optima are solved as one warm-start chain per scenario
// across the platform list (optimize.SweepSolver): for a fixed scenario
// the optimum moves by only a few × between Table II platforms, so most
// platform cells warm-start from their neighbour; a platform whose
// optimum drifted outside the bracket falls back to the full scan.
// Simulation then prices all cells in parallel with the historical
// per-cell seeds.
func Fig2Context(ctx context.Context, platforms []platform.Platform, cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	scenarios := costmodel.AllScenarios
	nS := len(scenarios)
	models := make([]core.Model, len(platforms)*nS)
	for pi, pl := range platforms {
		for si, sc := range scenarios {
			m, err := BuildModel(pl, sc, cfg.Alpha, cfg.Downtime)
			if err != nil {
				return nil, err
			}
			models[pi*nS+si] = m
		}
	}

	nums := make([]optimize.PatternResult, len(models))
	err := parallelFor(ctx, nS, cfg.Workers, func(ctx context.Context, si int) error {
		solver := optimize.NewSweepSolver(optimize.SweepOptions{Cold: cfg.ColdSolve})
		for pi := range platforms {
			i := pi*nS + si
			num, err := solver.Solve(models[i])
			if err != nil {
				return fmt.Errorf("experiments: optimizing fig2/%s/%v: %w",
					platforms[pi].Name, scenarios[si], err)
			}
			nums[i] = num
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]Fig2Cell, len(models))
	err = parallelFor(ctx, len(models), cfg.Workers, func(ctx context.Context, i int) error {
		pi, si := i/nS, i%nS
		pl, sc := platforms[pi], scenarios[si]
		label := fmt.Sprintf("fig2/%s/%v", pl.Name, sc)
		m := models[i]
		fo, err := solveFirstOrder(ctx, m, cfg, label)
		if err != nil {
			return err
		}
		opt, err := simulateEval(ctx, m, nums[i].Solution, nums[i].AtPBound, cfg, label+"/numerical")
		if err != nil {
			return err
		}
		cells[i] = Fig2Cell{Platform: pl.Name, Scenario: sc, FirstOrder: fo, Optimal: &opt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Cells: cells, Cfg: cfg}, nil
}

// Tables renders one table per platform with the paper's three panels
// (P*, T*, overhead) as columns.
func (r *Fig2Result) Tables() []*report.Table {
	byPlatform := map[string]*report.Table{}
	var order []string
	for _, c := range r.Cells {
		tb, ok := byPlatform[c.Platform]
		if !ok {
			tb = report.NewTable(
				fmt.Sprintf("Fig. 2 — optimal patterns on %s (α=%g, D=%gs)",
					c.Platform, r.Cfg.Alpha, r.Cfg.Downtime),
				"scenario",
				"P* (first-order)", "P* (optimal)",
				"T* (first-order)", "T* (optimal)",
				"H sim (first-order)", "H sim (optimal)",
				"H pred (first-order)", "H pred (optimal)",
			)
			byPlatform[c.Platform] = tb
			order = append(order, c.Platform)
		}
		tb.AddFloats(c.Scenario.String(),
			orNaN(c.FirstOrder, func(e Eval) float64 { return e.P }),
			orNaN(c.Optimal, func(e Eval) float64 { return e.P }),
			orNaN(c.FirstOrder, func(e Eval) float64 { return e.T }),
			orNaN(c.Optimal, func(e Eval) float64 { return e.T }),
			orNaN(c.FirstOrder, func(e Eval) float64 { return e.SimulatedH }),
			orNaN(c.Optimal, func(e Eval) float64 { return e.SimulatedH }),
			orNaN(c.FirstOrder, func(e Eval) float64 { return e.PredictedH }),
			orNaN(c.Optimal, func(e Eval) float64 { return e.PredictedH }),
		)
	}
	out := make([]*report.Table, 0, len(order))
	for _, name := range order {
		out = append(out, byPlatform[name])
	}
	return out
}

// Render writes all tables.
func (r *Fig2Result) Render(w io.Writer) error {
	for _, tb := range r.Tables() {
		if err := tb.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the long-form series (one row per platform × scenario ×
// method × quantity).
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	var series []report.Series
	add := func(name string, value func(Fig2Cell) float64) {
		s := report.Series{Name: name}
		for i, c := range r.Cells {
			v := value(c)
			s.Add(float64(i), v)
		}
		series = append(series, s)
	}
	add("pstar_first_order", func(c Fig2Cell) float64 {
		return orNaN(c.FirstOrder, func(e Eval) float64 { return e.P })
	})
	add("pstar_optimal", func(c Fig2Cell) float64 {
		return orNaN(c.Optimal, func(e Eval) float64 { return e.P })
	})
	add("tstar_first_order", func(c Fig2Cell) float64 {
		return orNaN(c.FirstOrder, func(e Eval) float64 { return e.T })
	})
	add("tstar_optimal", func(c Fig2Cell) float64 {
		return orNaN(c.Optimal, func(e Eval) float64 { return e.T })
	})
	add("overhead_sim_first_order", func(c Fig2Cell) float64 {
		return orNaN(c.FirstOrder, func(e Eval) float64 { return e.SimulatedH })
	})
	add("overhead_sim_optimal", func(c Fig2Cell) float64 {
		return orNaN(c.Optimal, func(e Eval) float64 { return e.SimulatedH })
	})
	return report.WriteSeriesCSV(w, "cell_index", "value", series...)
}
