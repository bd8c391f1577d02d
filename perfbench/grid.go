package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"amdahlyd/internal/campaign"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

// gridWhy is grid-batch's reason, as recorded in BENCHMARK.json.
const gridWhy = "campaign.Run over sweep-lambda, multilevel, hetero and robustness manifests, Fig2-Fig7 and a resume pass: the batch path no serving workload reaches. Limit 5 s per grid pass"

// gridSetups is how many times grid-batch sets up before each pass but
// the first; a set-up takes about a millisecond, so the median needs
// many samples.
const gridSetups = 5

// gridLimit is grid-batch's fixed latency limit per grid pass.
const gridLimit = 5 * time.Second

// Monte-Carlo budgets, sized so that one grid pass takes about a second
// on a 2-vCPU machine and a run measures a dozen passes. The robustness
// manifest prices on the machine-level simulator, so it gets the
// smallest budget.
const (
	figRuns, figPatterns = 150, 200
	gridWorkers          = 2
)

var gridPresets = []struct {
	name           string
	runs, patterns int
}{
	{"sweep-lambda", 40, 80},
	{"multilevel", 40, 80},
	{"hetero", 40, 80},
	{"robustness", 20, 40},
}

func gridManifests(seed uint64) ([]campaign.Manifest, error) {
	var out []campaign.Manifest
	for _, p := range gridPresets {
		m, err := campaign.Preset(p.name)
		if err != nil {
			return nil, err
		}
		m.Seed, m.Runs, m.Patterns = seed, p.runs, p.patterns
		out = append(out, m)
	}
	return out, nil
}

func figConfig(seed uint64) experiments.Config {
	return experiments.Config{Runs: figRuns, Patterns: figPatterns, Seed: seed, Workers: gridWorkers}
}

// figureResult is what an experiments.FigNContext call returns; it
// renders as text.
type figureResult interface{ Render(io.Writer) error }

// figure is one of the paper's figures.
type figure struct {
	name string
	run  func(ctx context.Context, cfg experiments.Config) (figureResult, error)
}

var figures = []figure{
	{"fig2", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig2Context(ctx, platform.All(), cfg)
	}},
	{"fig3", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig3Context(ctx, platform.Hera(), experiments.DefaultFig3Procs(), cfg)
	}},
	{"fig4", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig4Context(ctx, platform.Hera(), nil, cfg)
	}},
	{"fig5", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig5Context(ctx, platform.Hera(), nil, cfg)
	}},
	{"fig6", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig6Context(ctx, platform.Hera(), nil, cfg)
	}},
	{"fig7", func(ctx context.Context, cfg experiments.Config) (figureResult, error) {
		return experiments.Fig7Context(ctx, platform.Hera(), nil, cfg)
	}},
}

// gridRun is what a grid-batch run measured and checked.
type gridRun struct {
	passes        []time.Duration
	tracedPasses  []time.Duration
	figSets       []time.Duration // Fig2-Fig7 per pass
	cells         int64           // cells executed
	cellTime      time.Duration   // campaign.Run time (not resumes)
	cellMs        []float64       // per pass: campaign.Run time per cell executed
	retries       int64
	artifactBytes int64
	attempted     int64
	failures      []error
	figOut        map[string][]byte
	// plans are the set-up's cell plans and figRes the last pass's
	// figure results: the answers a researcher's process holds.
	plans  []*campaign.Plan
	figRes []figureResult
}

func (g *gridRun) fail(err error) { g.failures = append(g.failures, err) }

// gridPass runs every job once into dir. Under a tracer each job is a
// span under the pass's root span.
func gridPass(ctx context.Context, g *gridRun, mans []campaign.Manifest, seed uint64, dir string, tr *tracer, pass int64) time.Duration {
	root := tr.begin("grid.pass", 0, pass)
	start := time.Now()
	job := func(name string, fn func() error) {
		a := tr.begin(name, root.id(), pass)
		err := fn()
		a.end()
		g.attempted++
		if err != nil {
			g.fail(err)
		}
	}
	reports := make([][2][]byte, len(mans))
	var passCells int
	var passCellTime time.Duration
	for i, man := range mans {
		out := filepath.Join(dir, man.Name)
		job("campaign.run", func() error {
			t0 := time.Now()
			sum, err := campaign.Run(ctx, man, campaign.Options{OutDir: out, Workers: gridWorkers})
			passCellTime += time.Since(t0)
			passCells += sum.Executed
			g.retries += int64(sum.Retries)
			if err != nil {
				return fmt.Errorf("%s: %w", man.Name, err)
			}
			if sum.Failed != 0 || sum.Executed != sum.Planned {
				return fmt.Errorf("%s: %d of %d cells executed, %d failed", man.Name, sum.Executed, sum.Planned, sum.Failed)
			}
			var err1, err2 error
			reports[i][0], err1 = os.ReadFile(sum.ReportText)
			reports[i][1], err2 = os.ReadFile(sum.ReportCSV)
			if err1 != nil {
				return err1
			}
			return err2
		})
	}
	g.cells += int64(passCells)
	g.cellTime += passCellTime
	if passCells > 0 {
		g.cellMs = append(g.cellMs, ms(passCellTime)/float64(passCells))
	}
	figStart := time.Now()
	cfg := figConfig(seed)
	for i, f := range figures {
		job("experiments."+f.name, func() error {
			res, err := f.run(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			g.figRes[i] = res
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			if prev, ok := g.figOut[f.name]; ok && !bytes.Equal(prev, buf.Bytes()) {
				return fmt.Errorf("%s: output differs between passes at the same seed", f.name)
			}
			g.figOut[f.name] = buf.Bytes()
			return nil
		})
	}
	g.figSets = append(g.figSets, time.Since(figStart))
	for i, man := range mans {
		out := filepath.Join(dir, man.Name)
		job("campaign.resume", func() error {
			sum, err := campaign.Run(ctx, man, campaign.Options{OutDir: out, Workers: gridWorkers, Resume: true})
			if err != nil {
				return fmt.Errorf("%s resume: %w", man.Name, err)
			}
			if sum.Executed != 0 || sum.Skipped != sum.Planned {
				return fmt.Errorf("%s resume executed %d cells, want 0", man.Name, sum.Executed)
			}
			txt, err1 := os.ReadFile(sum.ReportText)
			csv, err2 := os.ReadFile(sum.ReportCSV)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%s resume: reading reports: %v %v", man.Name, err1, err2)
			}
			if !bytes.Equal(txt, reports[i][0]) || !bytes.Equal(csv, reports[i][1]) {
				return fmt.Errorf("%s resume rewrote a different report", man.Name)
			}
			return nil
		})
	}
	el := time.Since(start)
	root.end()
	return el
}

// artifactBytes sums the cell artifacts under dir.
func artifactBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Base(filepath.Dir(path)) == "cells" {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// verifyCells re-derives a seeded sample of sweep-lambda cells with the
// library optimizer: every artifact's optimum must match the per-cell
// OptimalPattern within the warm-start tolerance.
func verifyCells(plan *campaign.Plan, dir string, seed uint64) error {
	for i := 0; i < 6; i++ {
		cell := plan.Cells[hash(seed, 11, uint64(i))%uint64(len(plan.Cells))]
		raw, err := os.ReadFile(filepath.Join(dir, "cells", cell.ID+".json"))
		if err != nil {
			return err
		}
		var art campaign.Artifact
		if err := json.Unmarshal(raw, &art); err != nil {
			return err
		}
		want, err := optimize.OptimalPattern(cell.Model, optimize.PatternOptions{})
		if err != nil {
			return err
		}
		if d := xmath.RelDiff(art.PredictedH, want.Overhead); !(d <= warmSweepTol) {
			return fmt.Errorf("cell %s: predicted overhead %v vs per-cell optimum %v", cell.Label(), art.PredictedH, want.Overhead)
		}
	}
	return nil
}

func runGrid(rep *report, seed uint64, d time.Duration, traced bool) error {
	rep.Why, rep.LatencyLimitMs = gridWhy, ms(gridLimit)
	rep.Load = fmt.Sprintf("sequential grid jobs, %d workers each", gridWorkers)
	mans, err := gridManifests(seed)
	if err != nil {
		return err
	}
	base := filepath.Join(workDir, "grid")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Set-up: expand every manifest into its cell plan and make the
	// output directory. The passes run on the first set-up's plans; the
	// run sets up again before every further pass, so that the set-ups
	// are spread over the timed phase like the passes they are compared
	// with, not bunched into the process's first milliseconds.
	var setups, expands []float64
	setUp := func() ([]*campaign.Plan, error) {
		// From a collected heap, a set-up pays for its own allocations,
		// not for the garbage of the pass before it.
		runtime.GC()
		start := time.Now()
		var exp time.Duration
		var plans []*campaign.Plan
		for _, man := range mans {
			t0 := time.Now()
			plan, err := campaign.Expand(man)
			if err != nil {
				return nil, err
			}
			exp += time.Since(t0)
			plans = append(plans, plan)
		}
		if err := os.MkdirAll(filepath.Join(tmp, fmt.Sprintf("setup-%d", len(setups))), 0o755); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		expands = append(expands, ms(exp))
		return plans, nil
	}
	plans, err := setUp()
	if err != nil {
		return err
	}

	ctx := context.Background()
	g := &gridRun{figOut: make(map[string][]byte), plans: plans, figRes: make([]figureResult, len(figures))}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var last string
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < d; pass++ {
		if last != "" {
			_ = os.RemoveAll(last)
			for i := 0; i < gridSetups; i++ {
				if _, err := setUp(); err != nil {
					return err
				}
			}
		}
		last = filepath.Join(tmp, fmt.Sprintf("pass-%d", pass))
		// In traced mode even passes run untraced, for the overhead ratio.
		var ptr *tracer
		if traced && pass%2 == 1 {
			ptr = tr
		}
		el := gridPass(ctx, g, mans, seed, last, ptr, int64(pass))
		if ptr != nil {
			g.tracedPasses = append(g.tracedPasses, el)
		} else {
			g.passes = append(g.passes, el)
		}
		if pass == 0 {
			g.artifactBytes = artifactBytes(last)
		}
		if len(g.failures) > 0 {
			break
		}
	}
	// What the grid retains is the live heap holding its plans and the
	// last pass's figure results less the live heap without them; the
	// rendered figures are the benchmark's, kept only to compare passes.
	g.figOut = nil
	heldMB := heapMB()
	if err := verifyCells(g.plans[0], filepath.Join(last, mans[0].Name), seed); err != nil {
		g.fail(err)
		rep.wrong++
	}
	g.plans, g.figRes = nil, nil
	retained := heldMB - heapMB()
	// A grid pass is the researcher's answer time: its percentiles are
	// the latency metrics here, over the run's passes.
	var total time.Duration
	within := 0
	for _, p := range append(append([]time.Duration(nil), g.passes...), g.tracedPasses...) {
		total += p
		if p <= gridLimit {
			within++
		}
		rep.PassMs = append(rep.PassMs, ms(p))
	}
	passes := append([]float64(nil), rep.PassMs...) // quantile sorts its input
	rep.Samples["passes"], rep.Samples["jobs"] = int64(len(passes)), g.attempted
	rep.EndToEnd = map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": float64(g.attempted) / total.Seconds(),
		"latency_p50_ms": quantile(passes, 0.5),
		"latency_p99_ms": quantile(passes, 0.99),
		"slo_met_ratio":  ratio(float64(within), float64(len(passes))),
		"solve_ms":       median(g.cellMs),
		"cells_per_s":    float64(g.cells) / g.cellTime.Seconds(),
		"figures_s":      median(secs(g.figSets)),
	}
	rep.EndToEnd["heap_retained_mb"] = retained
	rep.attempted, rep.failed = g.attempted, int64(len(g.failures))
	for _, err := range g.failures {
		rep.errorf(false, err)
	}
	rep.EndToEnd["error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	if !traced {
		return nil
	}
	rep.PerLayer = solverMetrics(seed)
	rep.PerLayer["campaign.expand_ms"] = median(expands)
	rep.PerLayer["campaign.cells"] = float64(g.cells)
	rep.PerLayer["campaign.retries"] = float64(g.retries)
	rep.PerLayer["campaign.artifact_bytes"] = float64(g.artifactBytes)
	jobSpans := 0
	for _, s := range tr.spans {
		if s.Parent != 0 {
			jobSpans++
		}
	}
	rep.PerLayer["loadgen.traced_ops"] = float64(jobSpans)
	rep.PerLayer["loadgen.trace_overhead_ratio"] = ratio(median(secs(g.tracedPasses)), median(secs(g.passes)))
	perPass := func(name string) []float64 {
		sums := make(map[int64]float64)
		for _, s := range tr.spans {
			if s.Name == name {
				sums[s.Req] += float64(s.End-s.Start) / 1e9
			}
		}
		var out []float64
		for _, v := range sums {
			out = append(out, v)
		}
		return out
	}
	rep.PerLayer["campaign.run_s"] = median(perPass("campaign.run"))
	rep.PerLayer["campaign.resume_s"] = median(perPass("campaign.resume"))
	rep.Spans = summarize(tr.spans)
	for _, f := range figures {
		rep.PerLayer["experiments."+f.name+"_ms"] = rep.Spans["experiments."+f.name].P50us / 1e3
	}
	return writeTrace(rep, tr)
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
