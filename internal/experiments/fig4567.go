package experiments

import (
	"context"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

// DefaultFig4Alphas mirrors the paper's x-axis: α ∈ {0, 1e-4, 1e-3,
// 1e-2, 1e-1}. α = 0 switches to the perfectly parallel profile, for
// which only the numerical solution exists.
func DefaultFig4Alphas() []float64 {
	return []float64{0, 1e-4, 1e-3, 1e-2, 1e-1}
}

// Fig4Context reproduces Fig. 4: the impact of the sequential fraction
// α on P*, T* and the simulated overhead for scenarios 1, 3 and 5. A
// done ctx aborts the run.
func Fig4Context(ctx context.Context, pl platform.Platform, alphas []float64, cfg Config) (*SweepResult, error) {
	if len(alphas) == 0 {
		alphas = DefaultFig4Alphas()
	}
	cfg = cfg.withDefaults()
	build := func(alpha float64, sc costmodel.Scenario) (core.Model, error) {
		return BuildModel(pl, sc, alpha, cfg.Downtime)
	}
	return runSweep(ctx, "Fig. 4", "alpha", alphas, build, cfg)
}

// DefaultLambdas mirrors the λ_ind axis of Figs. 5 and 6: 1e-12 … 1e-8.
func DefaultLambdas() []float64 {
	return xmath.Logspace(1e-12, 1e-8, 9)
}

// Fig5Context reproduces Fig. 5: the impact of the individual error
// rate λ_ind at α = cfg.Alpha (0.1 in the paper). The asymptotic
// orders of Theorems 2 and 3 — P* = Θ(λ^-1/4) / Θ(λ^-1/3), T* =
// Θ(λ^-1/2) / Θ(λ^-1/3) — are recovered from the result by
// SweepResult.Slopes. A done ctx aborts the run.
func Fig5Context(ctx context.Context, pl platform.Platform, lambdas []float64, cfg Config) (*SweepResult, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	cfg = cfg.withDefaults()
	build := func(lambda float64, sc costmodel.Scenario) (core.Model, error) {
		return BuildModel(pl.WithLambda(lambda), sc, cfg.Alpha, cfg.Downtime)
	}
	return runSweep(ctx, "Fig. 5", "lambda_ind", lambdas, build, cfg)
}

// Fig6Context reproduces Fig. 6: the same λ_ind sweep with a perfectly
// parallel application (α = 0), where no first-order solution exists
// and the paper reports numerical orders P* ≈ λ^-1/2 (scenario 1) and
// ≈ λ^-1 (scenarios 3 and 5). A done ctx aborts the run.
func Fig6Context(ctx context.Context, pl platform.Platform, lambdas []float64, cfg Config) (*SweepResult, error) {
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas()
	}
	cfg = cfg.withDefaults()
	build := func(lambda float64, sc costmodel.Scenario) (core.Model, error) {
		return BuildModel(pl.WithLambda(lambda), sc, 0, cfg.Downtime)
	}
	return runSweep(ctx, "Fig. 6", "lambda_ind", lambdas, build, cfg)
}

// DefaultFig7Downtimes mirrors the paper's x-axis: 0 to 3 hours.
func DefaultFig7Downtimes() []float64 {
	return []float64{0, 1800, 3600, 5400, 7200, 9000, 10800}
}

// Fig7Context reproduces Fig. 7: the impact of the downtime D at α =
// cfg.Alpha. The first-order pattern is D-independent (D is a
// lower-order term); the numerical P* decreases as D grows. A done ctx
// aborts the run.
func Fig7Context(ctx context.Context, pl platform.Platform, downtimes []float64, cfg Config) (*SweepResult, error) {
	if len(downtimes) == 0 {
		downtimes = DefaultFig7Downtimes()
	}
	cfg = cfg.withDefaults()
	build := func(d float64, sc costmodel.Scenario) (core.Model, error) {
		return BuildModel(pl, sc, cfg.Alpha, d)
	}
	return runSweep(ctx, "Fig. 7", "D", downtimes, build, cfg)
}
