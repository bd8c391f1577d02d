package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
)

// MultilevelCell is one (scenario, in-memory fraction) cell of the
// multilevel study: the joint two-level optimum (T*, K*, P*), its
// first-order prediction and Monte-Carlo price, against the single-level
// numerical optimum of the same scenario.
type MultilevelCell struct {
	Scenario costmodel.Scenario
	// Frac prices the in-memory checkpoint at Frac·C_P.
	Frac float64
	// T, K and P are the joint two-level optimum.
	T float64
	K int
	P float64
	// PredictedH is the first-order two-level overhead at the optimum.
	PredictedH float64
	// SimulatedH is the Monte-Carlo mean overhead with CI95 half-width
	// SimCI (NaN when the cell is unsimulable).
	SimulatedH, SimCI float64
	// SingleP and SingleH are the single-level numerical optimum and its
	// simulated overhead — the baseline the two-level protocol must beat.
	SingleP, SingleH float64
	// SavingPct is the relative overhead reduction of the simulated
	// two-level optimum over the simulated single-level one, in percent.
	SavingPct float64
	// AtBound flags a joint optimum that stopped at the processor search
	// bound; such cells are reported unsimulated (the two-level simulator
	// has no error-pressure escape at extreme allocations).
	AtBound bool
	// Warm reports that the cell was solved in the warm bracket of its
	// axis neighbour.
	Warm bool
}

// MultilevelResult is the full study: Table III scenarios × in-memory
// cost fractions on one platform.
type MultilevelResult struct {
	Platform string
	Cells    []MultilevelCell
	Cfg      Config
}

// DefaultMultilevelFractions is the in-memory cost axis of the study:
// C1/C2 from 1/60 (a 5 s buddy checkpoint under a 300 s disk one) to 1
// (the in-memory level as expensive as disk — the protocol's break-even
// sanity cell).
var DefaultMultilevelFractions = []float64{1.0 / 60, 1.0 / 15, 0.2, 0.5, 1}

// MultilevelStudyContext runs the two-level extension study: for each
// scenario and in-memory cost fraction, the joint (T, K, P) optimum —
// the paper's central how-many-processors question asked of the
// two-level protocol — priced by Monte-Carlo and compared with the
// single-level numerical optimum. nil fracs and scenarios select the
// defaults (the DefaultMultilevelFractions axis; scenarios 1, 3, 5 as
// in the sweep figures).
//
// It runs the two-phase sweep shape: phase 1 solves the joint optima
// as one warm-start chain per scenario along the fraction axis
// (multilevel.SweepSolver; cfg.ColdSolve restores per-cell full-box
// scans) plus one single-level chain across scenarios, phase 2 prices
// every cell by Monte-Carlo in parallel with per-cell seeds derived
// from the streaming label hash.
func MultilevelStudyContext(ctx context.Context, pl platform.Platform, fracs []float64,
	scenarios []costmodel.Scenario, cfg Config) (*MultilevelResult, error) {
	cfg = cfg.withDefaults()
	if len(fracs) == 0 {
		fracs = DefaultMultilevelFractions
	}
	if len(scenarios) == 0 {
		scenarios = scenarios135
	}

	// Phase 1a: one single-level warm-start chain across the scenarios
	// (the baseline depends only on the scenario, not on the fraction).
	scModels := make([]core.Model, len(scenarios))
	for i, sc := range scenarios {
		m, err := BuildModel(pl, sc, cfg.Alpha, cfg.Downtime)
		if err != nil {
			return nil, err
		}
		scModels[i] = m
	}
	scNums, err := optimize.BatchOptimalPattern(scModels, optimize.SweepOptions{Cold: cfg.ColdSolve})
	if err != nil {
		return nil, fmt.Errorf("experiments: multilevel/%s single-level baseline: %w", pl.Name, err)
	}

	// Phase 1b: one multilevel chain per scenario along the fraction
	// axis. IntegerP keeps the joint optimum on integral allocations, so
	// warm and cold chains land on bit-identical cells (the refinement
	// difference is far below the rounding step) and the phase-2
	// campaigns replay bit-identically across -warm modes.
	nCells := len(scenarios) * len(fracs)
	cells := make([]MultilevelCell, nCells)
	mlOpts := multilevel.SweepOptions{
		PatternOptions: multilevel.PatternOptions{IntegerP: true},
		Cold:           cfg.ColdSolve,
	}
	err = parallelFor(ctx, len(scenarios), cfg.Workers, func(ctx context.Context, si int) error {
		sc := scenarios[si]
		m := scModels[si]
		solver := multilevel.NewSweepSolver(mlOpts)
		for fi, frac := range fracs {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := solver.Solve(m, multilevel.InMemoryFraction(m, frac))
			if err != nil {
				return fmt.Errorf("experiments: multilevel/%s/%v/frac=%g: %w",
					pl.Name, sc, frac, err)
			}
			cells[si*len(fracs)+fi] = MultilevelCell{
				Scenario:   sc,
				Frac:       frac,
				T:          res.T,
				K:          res.K,
				P:          res.P,
				PredictedH: res.PredictedH,
				AtBound:    res.AtPBound,
				Warm:       res.Warm,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: all Monte-Carlo campaigns in parallel — one two-level
	// campaign per cell plus one single-level baseline per scenario
	// (appended after the cells in the job index space).
	singleH := make([]float64, len(scenarios))
	err = parallelFor(ctx, nCells+len(scenarios), cfg.Workers, func(ctx context.Context, i int) error {
		if i >= nCells {
			// Single-level baseline: the scenario's numerical optimum
			// priced by the pattern-level simulator.
			si := i - nCells
			sc := scenarios[si]
			num := scNums[si]
			seed := newSeedHash().str("multilevel/").str(pl.Name).str("/").str(sc.String()).
				str("/single-level").seed(cfg.Seed)
			ev, err := simulateEvalSeed(ctx, scModels[si], num.Solution, num.AtPBound, cfg, seed,
				func() string {
					return fmt.Sprintf("multilevel/%s/%v/single-level", pl.Name, sc)
				})
			if err != nil {
				return err
			}
			singleH[si] = ev.SimulatedH
			return nil
		}
		cell := &cells[i]
		if cell.AtBound {
			cell.SimulatedH, cell.SimCI = math.NaN(), math.NaN()
			return nil
		}
		seed := newSeedHash().str("multilevel/").str(pl.Name).str("/").str(cell.Scenario.String()).
			str("/frac=").float(cell.Frac).seed(cfg.Seed)
		res, err := multilevel.SimulateModel(ctx, scModels[i/len(fracs)], cell.Frac,
			multilevel.Pattern{T: cell.T, K: cell.K}, cell.P, multilevel.CampaignConfig{
				Runs:     cfg.Runs,
				Patterns: cfg.Patterns,
				Seed:     seed,
				Workers:  1, // parallelism lives at the cell level
			})
		if err != nil {
			return fmt.Errorf("experiments: simulating multilevel/%s/%v/frac=%g: %w",
				pl.Name, cell.Scenario, cell.Frac, err)
		}
		cell.SimulatedH, cell.SimCI = res.Overhead.Mean, res.Overhead.CI95
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Join the baseline into every cell of its scenario.
	for i := range cells {
		si := i / len(fracs)
		cells[i].SingleP = scNums[si].P
		cells[i].SingleH = singleH[si]
		cells[i].SavingPct = (1 - cells[i].SimulatedH/singleH[si]) * 100
	}
	return &MultilevelResult{Platform: pl.Name, Cells: cells, Cfg: cfg}, nil
}

// Render writes the study as one table: the joint two-level structure
// and price per (scenario, fraction), against the single-level optimum.
func (r *MultilevelResult) Render(w io.Writer) error {
	tb := report.NewTable(
		fmt.Sprintf("Multilevel study on %s — joint (T, K, P) optimum vs single-level, α=%g, D=%gs",
			r.Platform, r.Cfg.Alpha, r.Cfg.Downtime),
		"scenario", "C1/C2", "T* (s)", "K*", "P*", "H pred", "H sim",
		"P* (1-level)", "H sim (1-level)", "saving")
	for _, c := range r.Cells {
		saving := "-"
		if !math.IsNaN(c.SavingPct) {
			saving = fmt.Sprintf("%+.2f%%", c.SavingPct)
		}
		if err := tb.AddRow(c.Scenario.String(),
			report.Fmt(c.Frac),
			report.Fmt(c.T),
			fmt.Sprintf("%d", c.K),
			report.Fmt(c.P),
			report.Fmt(c.PredictedH),
			report.Fmt(c.SimulatedH),
			report.Fmt(c.SingleP),
			report.Fmt(c.SingleH),
			saving); err != nil {
			return err
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// WriteCSV emits the study in long form, one series per quantity, x =
// cell index in (scenario-major, fraction-minor) order.
func (r *MultilevelResult) WriteCSV(w io.Writer) error {
	var series []report.Series
	add := func(name string, get func(MultilevelCell) float64) {
		s := report.Series{Name: name}
		for i, c := range r.Cells {
			s.Add(float64(i), get(c))
		}
		series = append(series, s)
	}
	add("scenario", func(c MultilevelCell) float64 { return float64(c.Scenario) })
	add("frac", func(c MultilevelCell) float64 { return c.Frac })
	add("tstar", func(c MultilevelCell) float64 { return c.T })
	add("kstar", func(c MultilevelCell) float64 { return float64(c.K) })
	add("pstar", func(c MultilevelCell) float64 { return c.P })
	add("overhead_pred", func(c MultilevelCell) float64 { return c.PredictedH })
	add("overhead_sim", func(c MultilevelCell) float64 { return c.SimulatedH })
	add("pstar_single", func(c MultilevelCell) float64 { return c.SingleP })
	add("overhead_sim_single", func(c MultilevelCell) float64 { return c.SingleH })
	add("saving_pct", func(c MultilevelCell) float64 { return c.SavingPct })
	return report.WriteSeriesCSV(w, "cell_index", "value", series...)
}
