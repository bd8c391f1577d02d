package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
	"amdahlyd/internal/sim"
)

// HeteroCell is one (scenario, comm, split) cell of the heterogeneous
// study: the joint optimum over active set, work split and per-group
// patterns, its model prediction and Monte-Carlo price, against the
// CPU-only single-group optimum of the same scenario.
type HeteroCell struct {
	Scenario costmodel.Scenario
	// Comm is the topology's inter-group communication coefficient κ.
	Comm float64
	// Split sizes the accelerator group as Split·(CPU size).
	Split float64
	// Active is the optimal active group count.
	Active int
	// CPUP and AccelP are the per-group allocations (NaN when the group
	// is inactive).
	CPUP, AccelP float64
	// AccelFrac is the accelerator's work share x_accel (0 when inactive).
	AccelFrac float64
	// PredictedH is the combined model overhead H = 1/Σ 1/A_g.
	PredictedH float64
	// SimulatedH is the Monte-Carlo mean makespan overhead with CI95
	// half-width SimCI (NaN when the cell is unsimulable).
	SimulatedH, SimCI float64
	// SingleH is the simulated overhead of the CPU-only baseline.
	SingleH float64
	// SavingPct is the relative overhead reduction of the simulated
	// heterogeneous optimum over the CPU-only baseline, in percent.
	SavingPct float64
	// Warm reports that the cell was solved in the warm bracket of its
	// comm-axis neighbour.
	Warm bool
}

// HeteroResult is the full study: scenarios × comm terms × group splits
// on one CPU platform plus its derived accelerator group.
type HeteroResult struct {
	Platform string
	Cells    []HeteroCell
	Cfg      Config
}

// DefaultHeteroComms is the communication axis of the study, from free
// cooperation to a comm bill that dominates the parallel gain.
var DefaultHeteroComms = []float64{0, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4}

// DefaultHeteroSplits is the accelerator-size axis: the accelerator group
// holds Split·(CPU size) processors.
var DefaultHeteroSplits = []float64{0.0625, 0.25, 1}

// HeteroStudyTopology derives the study's two-group topology from a CPU
// platform: the platform itself as the baseline group, plus an
// accelerator group that is 8× faster and 50× less reliable per
// processor, with a cheaper checkpoint (smaller device memory: C/5, V/4),
// sized at split·(CPU size).
func HeteroStudyTopology(pl platform.Platform, comm, split float64) platform.Topology {
	size := math.Round(split * pl.Processors)
	if size < 1 {
		size = 1
	}
	return platform.Topology{
		Name: pl.Name + "+accel",
		Comm: comm,
		Groups: []platform.Group{
			{Name: "cpu", LambdaInd: pl.LambdaInd, FailStopFraction: pl.FailStopFraction,
				SilentFraction: pl.SilentFraction, Size: pl.Processors, Speed: 1,
				CheckpointCost: pl.CheckpointCost, VerificationCost: pl.VerificationCost},
			{Name: "accel", LambdaInd: 50 * pl.LambdaInd, FailStopFraction: pl.FailStopFraction,
				SilentFraction: pl.SilentFraction, Size: size, Speed: 8,
				CheckpointCost: pl.CheckpointCost / 5, VerificationCost: pl.VerificationCost / 4},
		},
	}
}

// HeterogeneousStudyContext runs the topology-aware heterogeneous
// platform study: for each scenario, inter-group comm term and
// accelerator split, the joint optimum — which groups work, how the
// load divides, what pattern each group runs — priced by Monte-Carlo
// and compared with the CPU-only single-group optimum. nil comms and
// splits select the default axes; scenarios defaults to 1, 3 and 5 as
// in the sweep figures.
//
// It runs the two-phase sweep shape: phase 1 solves the joint optima
// as one hetero.SweepSolver chain per (scenario, split) along the comm
// axis (cfg.ColdSolve restores per-cell full-box scans) plus one
// CPU-only baseline solve per scenario, phase 2 prices every cell by
// Monte-Carlo in parallel with per-cell seeds derived from the
// streaming label hash.
func HeterogeneousStudyContext(ctx context.Context, pl platform.Platform, comms, splits []float64,
	scenarios []costmodel.Scenario, cfg Config) (*HeteroResult, error) {
	cfg = cfg.withDefaults()
	if len(comms) == 0 {
		comms = DefaultHeteroComms
	}
	if len(splits) == 0 {
		splits = DefaultHeteroSplits
	}
	if len(scenarios) == 0 {
		scenarios = scenarios135
	}

	// Phase 1a: the CPU-only baseline, one single-group solve per scenario
	// through the same hetero path (degenerate by construction, so the
	// baseline is exactly the classical numerical optimum).
	baseModels := make([]core.HeteroModel, len(scenarios))
	basePlans := make([]hetero.PatternResult, len(scenarios))
	for si, sc := range scenarios {
		//lint:allow frozenloop one baseline compile per scenario; the optimizer runs on the compiled model
		hm, err := hetero.CompileTopology(platform.SingleGroup(pl), sc, cfg.Alpha, cfg.Downtime)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero/%s/%v baseline: %w", pl.Name, sc, err)
		}
		res, err := hetero.OptimalPattern(hm, hetero.PatternOptions{
			PatternOptions: singleIntegerOpts(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero/%s/%v baseline: %w", pl.Name, sc, err)
		}
		baseModels[si], basePlans[si] = hm, res
	}

	// Phase 1b: one warm chain per (scenario, split) along the comm axis.
	// IntegerP keeps the joint optimum on integral allocations, so warm
	// and cold chains land on bit-identical cells and the phase-2
	// campaigns replay bit-identically across -warm modes.
	nSc, nSp, nCo := len(scenarios), len(splits), len(comms)
	nCells := nSc * nSp * nCo
	cells := make([]HeteroCell, nCells)
	models := make([]core.HeteroModel, nCells)
	plans := make([]hetero.PatternResult, nCells)
	swOpts := hetero.SweepOptions{
		PatternOptions: hetero.PatternOptions{PatternOptions: singleIntegerOpts()},
		Cold:           cfg.ColdSolve,
	}
	err := parallelFor(ctx, nSc*nSp, cfg.Workers, func(ctx context.Context, j int) error {
		si, pi := j/nSp, j%nSp
		sc := scenarios[si]
		solver := hetero.NewSweepSolver(swOpts)
		for ci, comm := range comms {
			if err := ctx.Err(); err != nil {
				return err
			}
			tp := HeteroStudyTopology(pl, comm, splits[pi])
			//lint:allow frozenloop one compile per (scenario, split, comm) cell, each a distinct topology
			hm, err := hetero.CompileTopology(tp, sc, cfg.Alpha, cfg.Downtime)
			if err != nil {
				return fmt.Errorf("experiments: hetero/%s/%v/split=%g/comm=%g: %w",
					pl.Name, sc, splits[pi], comm, err)
			}
			res, err := solver.Solve(hm)
			if err != nil {
				return fmt.Errorf("experiments: hetero/%s/%v/split=%g/comm=%g: %w",
					pl.Name, sc, splits[pi], comm, err)
			}
			if res, err = canonicalizePlan(hm, res); err != nil {
				return fmt.Errorf("experiments: hetero/%s/%v/split=%g/comm=%g: %w",
					pl.Name, sc, splits[pi], comm, err)
			}
			i := (si*nSp+pi)*nCo + ci
			models[i], plans[i] = hm, res
			cell := HeteroCell{
				Scenario:   sc,
				Comm:       comm,
				Split:      splits[pi],
				Active:     res.Active,
				CPUP:       math.NaN(),
				AccelP:     math.NaN(),
				PredictedH: res.Overhead,
				Warm:       res.Warm,
			}
			for _, gp := range res.Groups {
				switch gp.Group {
				case 0:
					cell.CPUP = gp.P
				case 1:
					cell.AccelP = gp.P
					cell.AccelFrac = gp.Fraction
				}
			}
			cells[i] = cell
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: all Monte-Carlo campaigns in parallel — one heterogeneous
	// campaign per cell plus one CPU-only baseline per scenario (appended
	// after the cells in the job index space).
	singleH := make([]float64, len(scenarios))
	err = parallelFor(ctx, nCells+nSc, cfg.Workers, func(ctx context.Context, i int) error {
		if i >= nCells {
			si := i - nCells
			sc := scenarios[si]
			plan := basePlans[si].Groups[0]
			seed := newSeedHash().str("hetero/").str(pl.Name).str("/").str(sc.String()).
				str("/cpu-only").seed(cfg.Seed)
			ev, err := simulateEvalSeed(ctx, baseModels[si].Groups[0].Model,
				solutionAt(plan.T, plan.P), false, cfg, seed,
				func() string { return fmt.Sprintf("hetero/%s/%v/cpu-only", pl.Name, sc) })
			if err != nil {
				return err
			}
			singleH[si] = ev.SimulatedH
			return nil
		}
		cell := &cells[i]
		seed := newSeedHash().str("hetero/").str(pl.Name).str("/").str(cell.Scenario.String()).
			str("/split=").float(cell.Split).str("/comm=").float(cell.Comm).seed(cfg.Seed)
		res, err := hetero.SimulatePlan(ctx, models[i], plans[i].Groups, sim.RunConfig{
			Runs:     cfg.Runs,
			Patterns: cfg.Patterns,
			Seed:     seed,
			Workers:  1, // parallelism lives at the cell level
		})
		if errors.Is(err, sim.ErrErrorPressure) {
			cell.SimulatedH, cell.SimCI = math.NaN(), math.NaN()
			return nil
		}
		if err != nil {
			return fmt.Errorf("experiments: simulating hetero/%s/%v/split=%g/comm=%g: %w",
				pl.Name, cell.Scenario, cell.Split, cell.Comm, err)
		}
		cell.SimulatedH, cell.SimCI = res.Overhead.Mean, res.Overhead.CI95
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Join the baseline into every cell of its scenario.
	for i := range cells {
		si := i / (nSp * nCo)
		cells[i].SingleH = singleH[si]
		cells[i].SavingPct = (1 - cells[i].SimulatedH/singleH[si]) * 100
	}
	return &HeteroResult{Platform: pl.Name, Cells: cells, Cfg: cfg}, nil
}

// singleIntegerOpts is the per-group search box shared by the study's
// baseline and heterogeneous solves: integral allocations, so warm and
// cold chains land on bit-identical cells.
func singleIntegerOpts() optimize.PatternOptions {
	return optimize.PatternOptions{IntegerP: true}
}

// canonicalizePlan re-solves each active group's period at its chosen
// integral allocation with the reference inner minimizer
// (optimize.OptimalPeriod) and reassembles the harmonic combination in
// hetero's arithmetic order. On a cold solve this is a bit-identical
// no-op (the cold path's inner probe is the same minimizer); on a warm
// solve it snaps the Brent-polished period onto the reference answer, so
// warm and cold studies land on bit-identical cells and the phase-2
// campaigns replay bit-identically across -warm modes.
func canonicalizePlan(hm core.HeteroModel, res hetero.PatternResult) (hetero.PatternResult, error) {
	inv := 0.0
	for i := range res.Groups {
		gp := &res.Groups[i]
		m, err := hm.ActiveModel(gp.Group, res.Active)
		if err != nil {
			return hetero.PatternResult{}, err
		}
		t, h, err := optimize.OptimalPeriod(m, gp.P, singleIntegerOpts())
		if err != nil {
			return hetero.PatternResult{}, err
		}
		gp.T, gp.GroupOverhead = t, h
		inv += 1 / h
	}
	if res.Active == 1 {
		// The degenerate case passes the overhead through untouched, as in
		// hetero's assemble: the 1/(1/A) round trip is not bit-exact.
		res.Overhead = res.Groups[0].GroupOverhead
		res.Groups[0].Fraction = 1
		return res, nil
	}
	res.Overhead = 1 / inv
	for i := range res.Groups {
		res.Groups[i].Fraction = res.Overhead / res.Groups[i].GroupOverhead
	}
	return res, nil
}

// Render writes the study as one table: the joint heterogeneous optimum
// and price per (scenario, split, comm), against the CPU-only optimum.
func (r *HeteroResult) Render(w io.Writer) error {
	tb := report.NewTable(
		fmt.Sprintf("Heterogeneous study on %s — joint (groups, split, T, P) optimum vs CPU-only, α=%g, D=%gs",
			r.Platform, r.Cfg.Alpha, r.Cfg.Downtime),
		"scenario", "split", "κ", "G", "P cpu", "P accel", "x accel",
		"H pred", "H sim", "H sim (cpu)", "saving")
	for _, c := range r.Cells {
		saving := "-"
		if !math.IsNaN(c.SavingPct) {
			saving = fmt.Sprintf("%+.2f%%", c.SavingPct)
		}
		if err := tb.AddRow(c.Scenario.String(),
			report.Fmt(c.Split),
			report.Fmt(c.Comm),
			fmt.Sprintf("%d", c.Active),
			report.Fmt(c.CPUP),
			report.Fmt(c.AccelP),
			report.Fmt(c.AccelFrac),
			report.Fmt(c.PredictedH),
			report.Fmt(c.SimulatedH),
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
// cell index in (scenario-major, split, comm-minor) order.
func (r *HeteroResult) WriteCSV(w io.Writer) error {
	var series []report.Series
	add := func(name string, get func(HeteroCell) float64) {
		s := report.Series{Name: name}
		for i, c := range r.Cells {
			s.Add(float64(i), get(c))
		}
		series = append(series, s)
	}
	add("scenario", func(c HeteroCell) float64 { return float64(c.Scenario) })
	add("split", func(c HeteroCell) float64 { return c.Split })
	add("comm", func(c HeteroCell) float64 { return c.Comm })
	add("active", func(c HeteroCell) float64 { return float64(c.Active) })
	add("p_cpu", func(c HeteroCell) float64 { return c.CPUP })
	add("p_accel", func(c HeteroCell) float64 { return c.AccelP })
	add("x_accel", func(c HeteroCell) float64 { return c.AccelFrac })
	add("overhead_pred", func(c HeteroCell) float64 { return c.PredictedH })
	add("overhead_sim", func(c HeteroCell) float64 { return c.SimulatedH })
	add("overhead_sim_cpu", func(c HeteroCell) float64 { return c.SingleH })
	add("saving_pct", func(c HeteroCell) float64 { return c.SavingPct })
	return report.WriteSeriesCSV(w, "cell_index", "value", series...)
}
