package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
)

// Fig3Point is one (scenario, P) cell of Fig. 3.
type Fig3Point struct {
	Scenario costmodel.Scenario
	P        float64
	// PeriodFO is Theorem 1's first-order T*_P (panel a).
	PeriodFO float64
	// SimOverheadFO is the simulated overhead at (T*_P, P) (panel b).
	SimOverheadFO float64
	SimCI         float64
	// PeriodNum and the exact overheads feed panel (c): the gap between
	// the first-order period and the true optimal period for this P.
	PeriodNum  float64
	OverheadFO float64 // exact model at (PeriodFO, P)
	OverheadN  float64 // exact model at (PeriodNum, P)
}

// DiffPercent returns panel (c): the overhead excess of the first-order
// period over the numerically optimal period, in percent.
func (p Fig3Point) DiffPercent() float64 {
	return (p.OverheadFO - p.OverheadN) / p.OverheadN * 100
}

// Fig3Result holds the Fig. 3 sweep over processor counts on one platform.
type Fig3Result struct {
	Platform string
	Points   []Fig3Point
	Cfg      Config
}

// DefaultFig3Procs mirrors the paper's x-axis on Hera: 128 to 1472
// processors.
func DefaultFig3Procs() []float64 {
	var ps []float64
	for p := 128.0; p <= 1472; p += 96 {
		ps = append(ps, p)
	}
	return ps
}

// Fig3Context reproduces Fig. 3: the optimal checkpointing period T*_P
// (from Theorem 1), the simulated execution overhead, and the overhead
// gap to the per-P numerical optimum, for each of the six scenarios
// across a range of processor counts. A done ctx aborts the run.
func Fig3Context(ctx context.Context, pl platform.Platform, procs []float64, cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	if len(procs) == 0 {
		procs = DefaultFig3Procs()
	}
	type cellIdx struct {
		sc costmodel.Scenario
		p  float64
	}
	var idx []cellIdx
	for _, sc := range costmodel.AllScenarios {
		for _, p := range procs {
			idx = append(idx, cellIdx{sc, p})
		}
	}
	points := make([]Fig3Point, len(idx))
	err := parallelFor(ctx, len(idx), cfg.Workers, func(ctx context.Context, i int) error {
		sc, p := idx[i].sc, idx[i].p
		label := fmt.Sprintf("fig3/%s/%v/P=%g", pl.Name, sc, p)
		m, err := BuildModel(pl, sc, cfg.Alpha, cfg.Downtime)
		if err != nil {
			return err
		}
		tFO := m.OptimalPeriodFixedP(p)
		ev, err := simulateEval(ctx, m, solutionAt(tFO, p), false, cfg, label)
		if err != nil {
			return err
		}
		tNum, _, err := optimize.OptimalPeriod(m, p, optimize.PatternOptions{})
		if err != nil {
			return err
		}
		points[i] = Fig3Point{
			Scenario:      sc,
			P:             p,
			PeriodFO:      tFO,
			SimOverheadFO: ev.SimulatedH,
			SimCI:         ev.SimCI,
			PeriodNum:     tNum,
			OverheadFO:    m.Overhead(tFO, p),
			OverheadN:     m.Overhead(tNum, p),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Platform: pl.Name, Points: points, Cfg: cfg}, nil
}

// PanelSeries returns the three panels as series keyed by scenario:
// (a) T*_P vs P, (b) simulated overhead vs P, (c) overhead gap %.
func (r *Fig3Result) PanelSeries() (periods, overheads, diffs []report.Series) {
	bySc := map[costmodel.Scenario]int{}
	for _, sc := range costmodel.AllScenarios {
		bySc[sc] = len(periods)
		name := sc.String()
		periods = append(periods, report.Series{Name: name})
		overheads = append(overheads, report.Series{Name: name})
		diffs = append(diffs, report.Series{Name: name})
	}
	for _, pt := range r.Points {
		i := bySc[pt.Scenario]
		periods[i].Add(pt.P, pt.PeriodFO)
		overheads[i].Add(pt.P, pt.SimOverheadFO)
		diffs[i].Add(pt.P, pt.DiffPercent())
	}
	return periods, overheads, diffs
}

// Render writes the three panels as tables.
func (r *Fig3Result) Render(w io.Writer) error {
	ta := report.NewTable(
		fmt.Sprintf("Fig. 3(a) — optimal period T*_P on %s (α=%g)", r.Platform, r.Cfg.Alpha),
		"P", "sc1", "sc2", "sc3", "sc4", "sc5", "sc6")
	tb := report.NewTable(
		fmt.Sprintf("Fig. 3(b) — simulated overhead on %s", r.Platform),
		"P", "sc1", "sc2", "sc3", "sc4", "sc5", "sc6")
	tc := report.NewTable(
		fmt.Sprintf("Fig. 3(c) — overhead gap first-order vs optimal (%%) on %s", r.Platform),
		"P", "sc1", "sc2", "sc3", "sc4", "sc5", "sc6")

	byP := map[float64]map[costmodel.Scenario]Fig3Point{}
	var order []float64
	for _, pt := range r.Points {
		if _, ok := byP[pt.P]; !ok {
			byP[pt.P] = map[costmodel.Scenario]Fig3Point{}
			order = append(order, pt.P)
		}
		byP[pt.P][pt.Scenario] = pt
	}
	for _, p := range order {
		rowA := make([]float64, 0, 6)
		rowB := make([]float64, 0, 6)
		rowC := make([]float64, 0, 6)
		for _, sc := range costmodel.AllScenarios {
			pt := byP[p][sc]
			rowA = append(rowA, pt.PeriodFO)
			rowB = append(rowB, pt.SimOverheadFO)
			rowC = append(rowC, pt.DiffPercent())
		}
		ta.AddFloats(report.Fmt(p), rowA...)
		tb.AddFloats(report.Fmt(p), rowB...)
		tc.AddFloats(report.Fmt(p), rowC...)
	}
	for _, t := range []*report.Table{ta, tb, tc} {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits all three panels as long-form series.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	periods, overheads, diffs := r.PanelSeries()
	var all []report.Series
	for i := range periods {
		p := periods[i]
		p.Name = "period/" + p.Name
		o := overheads[i]
		o.Name = "overhead/" + o.Name
		d := diffs[i]
		d.Name = "diff_pct/" + d.Name
		all = append(all, p, o, d)
	}
	return report.WriteSeriesCSV(w, "P", "value", all...)
}
