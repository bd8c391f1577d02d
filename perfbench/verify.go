package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/service"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
	"amdahlyd/internal/xmath"
)

// warmSweepTol is the documented agreement of a warm-started sweep cell
// with the per-cell optimum (relative difference of the overhead).
const warmSweepTol = 1e-8

// decodeRequest decodes a request body the way the handlers do: unknown
// fields are an error.
func decodeRequest(k kind, body []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var err error
	switch k {
	case kOptimize:
		var q service.OptimizeRequest
		err = dec.Decode(&q)
		return q, err
	case kEvaluate:
		var q service.EvaluateRequest
		err = dec.Decode(&q)
		return q, err
	case kMLOptimize:
		var q service.MultilevelOptimizeRequest
		err = dec.Decode(&q)
		return q, err
	case kHeteroOptimize:
		var q service.HeteroOptimizeRequest
		err = dec.Decode(&q)
		return q, err
	case kSimulate:
		var q service.SimulateRequest
		err = dec.Decode(&q)
		return q, err
	case kSweep:
		var q service.SweepRequest
		err = dec.Decode(&q)
		return q, err
	}
	return nil, fmt.Errorf("unknown kind %d", k)
}

// decodeResponse decodes a unary answer into its response type.
func decodeResponse(k kind, body []byte) (any, error) {
	var v any
	switch k {
	case kOptimize:
		v = &service.OptimizeResponse{}
	case kEvaluate:
		v = &service.EvaluateResponse{}
	case kMLOptimize:
		v = &service.MultilevelOptimizeResponse{}
	case kHeteroOptimize:
		v = &service.HeteroOptimizeResponse{}
	case kSimulate:
		v = &service.SimulateResponse{}
	default:
		return nil, fmt.Errorf("kind %s has no unary response", kindName[k])
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	return v, nil
}

func patternOptions(o service.OptimizeOptions) optimize.PatternOptions {
	return optimize.PatternOptions{PMin: o.PMin, PMax: o.PMax, TMin: o.TMin, TMax: o.TMax, IntegerP: o.IntegerP}
}

func mlOptions(o service.MultilevelOptions) multilevel.PatternOptions {
	return multilevel.PatternOptions{PMin: o.PMin, PMax: o.PMax, IntegerP: o.IntegerP}
}

func heteroOptions(o service.HeteroOptions) hetero.PatternOptions {
	return hetero.PatternOptions{PatternOptions: patternOptions(o.OptimizeOptions), MaxGroups: o.MaxGroups}
}

func fraction(f *float64) float64 {
	if f != nil {
		return *f
	}
	return 1.0 / 15 // the service's default in-memory fraction
}

// defaultTP mirrors the evaluate/simulate defaulting: P the platform's
// deployed count, T the Theorem 1 period at P.
func defaultTP(m core.Model, pl platform.Platform, t, p float64) (float64, float64) {
	if p == 0 {
		p = pl.Processors
	}
	if t == 0 {
		t = m.OptimalPeriodFixedP(p)
	}
	return t, p
}

func optimizeResponse(r optimize.PatternResult, cached bool) service.OptimizeResponse {
	return service.OptimizeResponse{T: r.T, P: r.P, Overhead: r.Overhead, Method: r.Method,
		Class: r.Class.String(), AtPBound: r.AtPBound, Evals: r.Evals, Cached: cached}
}

func mlResponse(r multilevel.PatternResult, frac float64, cached bool) service.MultilevelOptimizeResponse {
	return service.MultilevelOptimizeResponse{T: r.T, K: r.K, P: r.P, Overhead: r.PredictedH,
		InMemFraction: frac, AtPBound: r.AtPBound, Evals: r.Evals, Cached: cached}
}

func heteroResponse(tp platform.Topology, r hetero.PatternResult, cached bool) service.HeteroOptimizeResponse {
	groups := make([]service.HeteroGroupPlanJSON, len(r.Groups))
	for i, gp := range r.Groups {
		groups[i] = service.HeteroGroupPlanJSON{Group: gp.Group, Fraction: gp.Fraction,
			T: gp.T, P: gp.P, Overhead: gp.GroupOverhead, AtPBound: gp.AtPBound}
		if gp.Group >= 0 && gp.Group < len(tp.Groups) {
			groups[i].Name = tp.Groups[gp.Group].Name
		}
	}
	return service.HeteroOptimizeResponse{Overhead: r.Overhead, Active: r.Active,
		Groups: groups, Evals: r.Evals, Cached: cached}
}

func summary(s stats.Summary) service.SummaryJSON {
	ptr := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return service.SummaryJSON{N: s.N, Mean: s.Mean, StdDev: ptr(s.StdDev), StdErr: ptr(s.StdErr),
		Min: s.Min, Max: s.Max, CI95: ptr(s.CI95)}
}

func simulateResponse(m core.Model, t, p float64, r sim.RunResult, cached bool) service.SimulateResponse {
	return service.SimulateResponse{T: t, P: p,
		Overhead: summary(r.Overhead), MeanPatternTime: summary(r.MeanPatternTime),
		PredictedH: m.Overhead(t, p), ExactPatternTime: m.ExactPatternTime(t, p),
		FailStops: r.FailStops, SilentDetections: r.SilentDetections, Recoveries: r.Recoveries,
		Runs: r.Config.Runs, Patterns: r.Config.Patterns, Cached: cached}
}

// simConfig is the campaign a simulate request names, normalized as the
// engine normalizes it.
func simConfig(q service.SimulateRequest) sim.RunConfig {
	cfg := sim.RunConfig{Runs: q.Runs, Patterns: q.Patterns, Seed: q.Seed}.WithDefaults()
	cfg.Workers = 1
	return cfg
}

// built is a request's resolved model: the handler's Build step.
type built struct {
	spec service.ModelSpec
	m    core.Model
	pl   platform.Platform
	hm   core.HeteroModel
	tp   platform.Topology
}

func build(req any) (b built, err error) {
	switch q := req.(type) {
	case service.OptimizeRequest:
		b.spec = q.Model
	case service.EvaluateRequest:
		b.spec = q.Model
	case service.MultilevelOptimizeRequest:
		b.spec = q.Model
	case service.SimulateRequest:
		b.spec = q.Model
	case service.HeteroOptimizeRequest:
		b.hm, b.tp, err = q.Topology.Build()
		return b, err
	default:
		return b, fmt.Errorf("no model in %T", req)
	}
	b.m, b.pl, err = b.spec.Build()
	return b, err
}

// answer computes the response a unary request should get from its built
// model. With e nil it uses the library calls the CLIs make (optimize,
// multilevel and hetero OptimalPattern, sim.SimulateContext, frozen
// evaluations); with an engine it makes the engine call the handler
// makes, which is what the traced replay times.
func answer(ctx context.Context, e *service.Engine, req any, b built) (any, error) {
	m := b.m
	switch q := req.(type) {
	case service.OptimizeRequest:
		if e != nil {
			r, cached, err := e.Optimize(ctx, m, patternOptions(q.Options))
			return optimizeResponse(r, cached), err
		}
		r, err := optimize.OptimalPattern(m, patternOptions(q.Options))
		return optimizeResponse(r, false), err
	case service.EvaluateRequest:
		t, p := defaultTP(m, b.pl, q.T, q.P)
		if e != nil {
			ev, err := e.Evaluate(m, t, p)
			return service.EvaluateResponse{Evaluation: ev, Platform: b.pl.Name}, err
		}
		fz := m.Freeze(max(p, 1))
		return service.EvaluateResponse{Platform: b.pl.Name, Evaluation: service.Evaluation{
			T: t, P: fz.P, Overhead: fz.Overhead(t), PatternTime: fz.PatternTime(t),
			FirstOrderTime: fz.FirstOrderPatternTime(t), ErrorFree: fz.ErrorFreeOverhead(t),
			OptimalPeriodFixedP: fz.OptimalPeriod(), Speedup: fz.Speedup(t),
		}}, nil
	case service.MultilevelOptimizeRequest:
		frac := fraction(q.InMemFraction)
		if e != nil {
			r, cached, err := e.MultilevelOptimize(ctx, m, frac, mlOptions(q.Options))
			return mlResponse(r, frac, cached), err
		}
		r, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, frac), mlOptions(q.Options))
		return mlResponse(r, frac, false), err
	case service.HeteroOptimizeRequest:
		if e != nil {
			r, cached, err := e.HeteroOptimize(ctx, b.hm, heteroOptions(q.Options))
			return heteroResponse(b.tp, r, cached), err
		}
		r, err := hetero.OptimalPattern(b.hm, heteroOptions(q.Options))
		return heteroResponse(b.tp, r, false), err
	case service.SimulateRequest:
		t, p := defaultTP(m, b.pl, q.T, q.P)
		if e != nil {
			r, cached, err := e.Simulate(ctx, m, t, p, simConfig(q))
			return simulateResponse(m, t, p, r, cached), err
		}
		r, err := sim.SimulateContext(ctx, m, t, p, simConfig(q))
		return simulateResponse(m, t, p, r, false), err
	}
	return nil, fmt.Errorf("no unary answer for %T", req)
}

// uncached marshals a response with its cache provenance cleared: the
// only field allowed to differ between a cold and a warm answer.
func uncached(v any) ([]byte, error) {
	switch r := v.(type) {
	case *service.OptimizeResponse:
		r.Cached = false
	case *service.EvaluateResponse:
	case *service.MultilevelOptimizeResponse:
		r.Cached = false
	case *service.HeteroOptimizeResponse:
		r.Cached = false
	case *service.SimulateResponse:
		r.Cached = false
	}
	return json.Marshal(v)
}

// expected memoizes the library's answers by request body: a request
// kept several times is solved once, and every served copy is compared.
type expected struct {
	unary map[string][]byte
	sweep map[string][]optimize.PatternResult
}

func newExpected() *expected {
	return &expected{unary: make(map[string][]byte), sweep: make(map[string][]optimize.PatternResult)}
}

// verifyUnary checks a served unary answer bit-exactly against the
// library's, cache provenance aside.
func (e *expected) verifyUnary(k kind, reqBody, got []byte) error {
	want, ok := e.unary[string(reqBody)]
	if !ok {
		req, err := decodeRequest(k, reqBody)
		if err != nil {
			return err
		}
		b, err := build(req)
		if err != nil {
			return err
		}
		v, err := answer(context.Background(), nil, req, b)
		if err != nil {
			return fmt.Errorf("library: %w", err)
		}
		if want, err = json.Marshal(v); err != nil {
			return err
		}
		e.unary[string(reqBody)] = want
	}
	gotV, err := decodeResponse(k, got)
	if err != nil {
		return err
	}
	gotB, err := uncached(gotV)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotB, want) {
		return fmt.Errorf("%s answer differs from the library:\n got  %s\n want %s", kindName[k], gotB, want)
	}
	return nil
}

// axisSpec returns the sweep's base spec with the axis set to x.
func axisSpec(spec service.ModelSpec, axis string, x float64) service.ModelSpec {
	switch axis {
	case "alpha":
		spec.Alpha = &x
	case "lambda":
		spec.Lambda = x
	case "downtime":
		spec.Downtime = &x
	}
	return spec
}

// verifySweep checks every row of a single-level sweep answer against the
// per-cell optimum: bit-exactly for cold sweeps, within warmSweepTol for
// warm-started ones.
func (e *expected) verifySweep(reqBody, got []byte) error {
	req, err := decodeRequest(kSweep, reqBody)
	if err != nil {
		return err
	}
	q := req.(service.SweepRequest)
	cells, ok := e.sweep[string(reqBody)]
	if !ok {
		for _, x := range q.Values {
			m, _, err := axisSpec(q.Model, q.Axis, x).Build()
			if err != nil {
				return err
			}
			want, err := optimize.OptimalPattern(m, patternOptions(q.Options))
			if err != nil {
				return err
			}
			cells = append(cells, want)
		}
		e.sweep[string(reqBody)] = cells
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	for i, x := range q.Values {
		var row service.SweepRow
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("sweep row %d: %w", i, err)
		}
		want := cells[i]
		if row.X != x {
			return fmt.Errorf("sweep row %d: x = %v, want %v", i, row.X, x)
		}
		if q.Cold {
			w := service.SweepRow{X: x, T: want.T, P: want.P, Overhead: want.Overhead, Method: want.Method,
				Class: want.Class.String(), AtPBound: want.AtPBound, Evals: want.Evals}
			row.Warm, row.Cached = false, false
			if row.T != w.T || row.P != w.P || row.Overhead != w.Overhead || row.Method != w.Method ||
				row.Class != w.Class || row.AtPBound != w.AtPBound || row.Evals != w.Evals {
				return fmt.Errorf("cold sweep row %d differs from the library: got %+v want %+v", i, row, w)
			}
			continue
		}
		if d := xmath.RelDiff(row.Overhead, want.Overhead); !(d <= warmSweepTol) {
			return fmt.Errorf("warm sweep row %d: overhead %v vs per-cell %v (rel diff %g > %g)",
				i, row.Overhead, want.Overhead, d, warmSweepTol)
		}
	}
	if dec.More() {
		return fmt.Errorf("sweep answer has more than %d rows", len(q.Values))
	}
	return nil
}

// normalizeCached makes two answers comparable byte for byte when only
// their cache provenance may differ.
func normalizeCached(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte(`"cached":false`), []byte(`"cached":true`))
}
