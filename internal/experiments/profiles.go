package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
	"amdahlyd/internal/speedup"
)

// ProfileCell is one (profile, scenario) cell of the profile study.
type ProfileCell struct {
	Profile  string
	Scenario costmodel.Scenario
	// SemiAnalytic is the Theorem 1-based optimum (first-order in T,
	// numerical in P) — defined for every profile.
	SemiAnalytic Eval
	// Optimal is the full numerical optimum of the exact formula.
	Optimal Eval
}

// ProfileStudyResult extends the paper ("different speedup profiles",
// Section V): optimal patterns for speedup profiles beyond Amdahl's law,
// on one platform at one scenario, priced by simulation.
type ProfileStudyResult struct {
	Platform string
	Cells    []ProfileCell
	Cfg      Config
}

// DefaultProfiles is the profile set of the study: the paper's Amdahl
// law, Gustafson weak scaling, and an empirical power law. Construction
// goes through the validating constructors so a bad α cannot silently
// produce a decreasing S(P).
func DefaultProfiles(alpha float64) ([]speedup.Profile, error) {
	am, err := speedup.NewAmdahl(alpha)
	if err != nil {
		return nil, err
	}
	gu, err := speedup.NewGustafson(alpha)
	if err != nil {
		return nil, err
	}
	pw9, err := speedup.NewPowerLaw(0.9)
	if err != nil {
		return nil, err
	}
	pw7, err := speedup.NewPowerLaw(0.7)
	if err != nil {
		return nil, err
	}
	return []speedup.Profile{am, gu, pw9, pw7}, nil
}

// ProfileStudyContext runs the extension experiment: for each profile
// and each of scenarios 1, 3 and 5, compute the semi-analytic and
// fully numerical optima and price both by Monte-Carlo simulation. A
// done ctx aborts the run.
func ProfileStudyContext(ctx context.Context, pl platform.Platform, sc costmodel.Scenario, profiles []speedup.Profile, cfg Config) (*ProfileStudyResult, error) {
	cfg = cfg.withDefaults()
	if len(profiles) == 0 {
		var err error
		profiles, err = DefaultProfiles(cfg.Alpha)
		if err != nil {
			return nil, err
		}
	}
	cells := make([]ProfileCell, len(profiles))
	err := parallelFor(ctx, len(profiles), cfg.Workers, func(ctx context.Context, i int) error {
		prof := profiles[i]
		if err := speedup.Validate(prof); err != nil {
			return err
		}
		label := fmt.Sprintf("profiles/%s/%v/%s", pl.Name, sc, prof.Name())
		m, err := BuildModel(pl, sc, cfg.Alpha, cfg.Downtime)
		if err != nil {
			return err
		}
		m.Profile = prof
		// Cap the search so weak-scaling profiles (whose overhead keeps
		// improving for a long time) stay in a simulable range.
		opts := optimize.PatternOptions{PMax: 1e9}

		sa, err := optimize.SemiAnalyticOptimum(m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		saEval, err := simulateEval(ctx, m, sa, false, cfg, label+"/semi-analytic")
		if err != nil {
			return err
		}

		num, err := optimize.OptimalPattern(m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		numEval, err := simulateEval(ctx, m, num.Solution, num.AtPBound, cfg, label+"/numerical")
		if err != nil {
			return err
		}
		cells[i] = ProfileCell{
			Profile:      prof.Name(),
			Scenario:     sc,
			SemiAnalytic: saEval,
			Optimal:      numEval,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ProfileStudyResult{Platform: pl.Name, Cells: cells, Cfg: cfg}, nil
}

// Render writes the study as one table.
func (r *ProfileStudyResult) Render(w io.Writer) error {
	tb := report.NewTable(
		fmt.Sprintf("Profile study (extension) on %s — %v, D=%gs",
			r.Platform, r.Cells[0].Scenario, r.Cfg.Downtime),
		"profile",
		"P* (semi-analytic)", "P* (optimal)",
		"T* (semi-analytic)", "T* (optimal)",
		"H sim (semi-analytic)", "H sim (optimal)",
	)
	for _, c := range r.Cells {
		tb.AddFloats(c.Profile,
			c.SemiAnalytic.P, c.Optimal.P,
			c.SemiAnalytic.T, c.Optimal.T,
			c.SemiAnalytic.SimulatedH, c.Optimal.SimulatedH,
		)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// WriteCSV emits the study in long form.
func (r *ProfileStudyResult) WriteCSV(w io.Writer) error {
	var series []report.Series
	add := func(name string, get func(ProfileCell) float64) {
		s := report.Series{Name: name}
		for i, c := range r.Cells {
			s.Add(float64(i), get(c))
		}
		series = append(series, s)
	}
	add("pstar_semi_analytic", func(c ProfileCell) float64 { return c.SemiAnalytic.P })
	add("pstar_optimal", func(c ProfileCell) float64 { return c.Optimal.P })
	add("overhead_sim_semi_analytic", func(c ProfileCell) float64 { return c.SemiAnalytic.SimulatedH })
	add("overhead_sim_optimal", func(c ProfileCell) float64 { return c.Optimal.SimulatedH })
	return report.WriteSeriesCSV(w, "profile_index", "value", series...)
}
