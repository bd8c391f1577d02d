package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

func sweepModels(t *testing.T, lambdas []float64) []core.Model {
	t.Helper()
	models := make([]core.Model, len(lambdas))
	for i, l := range lambdas {
		m, err := experiments.BuildModel(platform.Hera().WithLambda(l), costmodel.Scenario3, 0.1, 3600)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

var sweepLambdas = []float64{1e-10, 2e-10, 4e-10, 8e-10, 1.6e-9}

// sweepProtocol adapts one protocol's engine surface to the sweep
// contract test; results travel as any so one table covers all three.
type sweepProtocol struct {
	name  string
	cells int
	// sweep runs the protocol's SweepStream over its axis.
	sweep func(e *Engine, cold bool) (res []any, cached []bool, err error)
	// optimize is the per-cell memoized optimize; library the direct call.
	optimize func(e *Engine, i int) (any, bool, error)
	library  func(i int) (any, error)
	overhead func(r any) float64
	calls    func(Stats) uint64
}

func sweepProtocols(t *testing.T) []sweepProtocol {
	t.Helper()
	ctx := context.Background()
	models := sweepModels(t, sweepLambdas)
	mlModels := sweepModels(t, []float64{1e-9, 2e-9, 4e-9, 8e-9})
	comms := []float64{0, 1e-6, 4e-6, 1e-5}
	hms := make([]core.HeteroModel, len(comms))
	for i, c := range comms {
		hm, _, err := testTopologySpec(c).Build()
		if err != nil {
			t.Fatal(err)
		}
		hms[i] = hm
	}
	return []sweepProtocol{{
		name:  "single",
		cells: len(models),
		sweep: func(e *Engine, cold bool) (res []any, cached []bool, err error) {
			err = e.SweepStream(ctx, models, optimize.PatternOptions{}, cold, func(_ int, c SweepCell) error {
				res, cached = append(res, c.Result), append(cached, c.Cached)
				return nil
			})
			return res, cached, err
		},
		optimize: func(e *Engine, i int) (any, bool, error) {
			return e.Optimize(ctx, models[i], optimize.PatternOptions{})
		},
		library:  func(i int) (any, error) { return optimize.OptimalPattern(models[i], optimize.PatternOptions{}) },
		overhead: func(r any) float64 { return r.(optimize.PatternResult).Overhead },
		calls:    func(st Stats) uint64 { return st.SweepCalls },
	}, {
		name:  "multilevel",
		cells: len(mlModels),
		sweep: func(e *Engine, cold bool) (res []any, cached []bool, err error) {
			err = e.MultilevelSweepStream(ctx, mlModels, testFrac, multilevel.PatternOptions{}, cold, func(_ int, c MultilevelSweepCell) error {
				res, cached = append(res, c.Result), append(cached, c.Cached)
				return nil
			})
			return res, cached, err
		},
		optimize: func(e *Engine, i int) (any, bool, error) {
			return e.MultilevelOptimize(ctx, mlModels[i], testFrac, multilevel.PatternOptions{})
		},
		library: func(i int) (any, error) {
			m := mlModels[i]
			return multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, testFrac), multilevel.PatternOptions{})
		},
		overhead: func(r any) float64 { return r.(multilevel.PatternResult).PredictedH },
		calls:    func(st Stats) uint64 { return st.MultilevelSweepCalls },
	}, {
		name:  "hetero",
		cells: len(hms),
		sweep: func(e *Engine, cold bool) (res []any, cached []bool, err error) {
			err = e.HeteroSweepStream(ctx, hms, hetero.PatternOptions{}, cold, func(_ int, c HeteroSweepCell) error {
				res, cached = append(res, c.Result), append(cached, c.Cached)
				return nil
			})
			return res, cached, err
		},
		optimize: func(e *Engine, i int) (any, bool, error) {
			return e.HeteroOptimize(ctx, hms[i], hetero.PatternOptions{})
		},
		library:  func(i int) (any, error) { return hetero.OptimalPattern(hms[i], hetero.PatternOptions{}) },
		overhead: func(r any) float64 { return r.(hetero.PatternResult).Overhead },
		calls:    func(st Stats) uint64 { return st.HeteroSweepCalls },
	}}
}

// TestEngineSweepContract pins the SweepStream contract of every
// protocol. Cold cells are bit-identical to per-cell optimize and share
// its cache entries in both directions. Warm cells agree within the
// refinement tolerance but never populate the optimize namespace (so
// optimize stays bit-exact after a warm sweep), and a repeat sweep is
// served from the per-cell cache.
func TestEngineSweepContract(t *testing.T) {
	for _, p := range sweepProtocols(t) {
		t.Run(p.name+"/cold", func(t *testing.T) {
			e := NewEngine(Options{})
			// Optimize primes the sweep: cell 0 is solved first per cell.
			if _, _, err := p.optimize(e, 0); err != nil {
				t.Fatal(err)
			}
			res, cached, err := p.sweep(e, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != p.cells {
				t.Fatalf("%d cells emitted, want %d", len(res), p.cells)
			}
			for i := range res {
				if cached[i] != (i == 0) {
					t.Errorf("cell %d: cached = %t", i, cached[i])
				}
				lib, err := p.library(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res[i], lib) {
					t.Errorf("cell %d: cold sweep %+v != library %+v", i, res[i], lib)
				}
				// The sweep primes optimize: every cell is now a hit.
				r, hit, err := p.optimize(e, i)
				if err != nil {
					t.Fatal(err)
				}
				if !hit || !reflect.DeepEqual(r, res[i]) {
					t.Errorf("cell %d: optimize after cold sweep cached=%t, same=%t", i, hit, reflect.DeepEqual(r, res[i]))
				}
			}
		})
		t.Run(p.name+"/warm", func(t *testing.T) {
			e := NewEngine(Options{})
			res, _, err := p.sweep(e, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res {
				lib, err := p.library(i)
				if err != nil {
					t.Fatal(err)
				}
				if d := xmath.RelDiff(p.overhead(res[i]), p.overhead(lib)); d > 1e-8 {
					t.Errorf("cell %d: warm overhead off by %.3g", i, d)
				}
				r, hit, err := p.optimize(e, i)
				if err != nil {
					t.Fatal(err)
				}
				if hit {
					t.Errorf("cell %d: warm sweep populated the optimize cache", i)
				}
				if !reflect.DeepEqual(r, lib) {
					t.Errorf("cell %d: optimize after warm sweep is not bit-identical to the library", i)
				}
			}
			again, cached, err := p.sweep(e, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range again {
				if !cached[i] {
					t.Errorf("cell %d: repeat sweep missed the per-cell cache", i)
				}
				if !reflect.DeepEqual(again[i], res[i]) {
					t.Errorf("cell %d: repeat sweep returned different bits", i)
				}
			}
			if n := p.calls(e.Stats()); n != 2 {
				t.Errorf("sweep calls = %d, want 2", n)
			}
		})
	}
}

// TestSweepHTTPStreamsNDJSON drives the endpoint end to end: one NDJSON
// row per axis value, in order, with warm flags and cache provenance.
func TestSweepHTTPStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body := map[string]any{
		"model":  map[string]any{"platform": "hera", "scenario": 3},
		"axis":   "lambda",
		"values": sweepLambdas,
	}
	fetch := func() []SweepRow {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		var rows []SweepRow
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var row SweepRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatalf("bad row %q: %v", sc.Text(), err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := fetch()
	if len(rows) != len(sweepLambdas) {
		t.Fatalf("got %d rows, want %d", len(rows), len(sweepLambdas))
	}
	warm := 0
	for i, row := range rows {
		if row.X != sweepLambdas[i] {
			t.Errorf("row %d: x = %g, want %g", i, row.X, sweepLambdas[i])
		}
		if !(row.Overhead > 0) || math.IsInf(row.Overhead, 0) {
			t.Errorf("row %d: overhead %g", i, row.Overhead)
		}
		if row.Cached {
			t.Errorf("row %d: first sweep reported cached", i)
		}
		if row.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Error("no cell warm-started on a smooth axis")
	}
	for i, row := range fetch() {
		if !row.Cached {
			t.Errorf("row %d: repeat sweep not served from cache", i)
		}
	}
}

// TestSweepHTTPValidation covers the request guards.
func TestSweepHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"bad axis", map[string]any{"model": map[string]any{}, "axis": "procs", "values": []float64{1}}, http.StatusBadRequest},
		{"no values", map[string]any{"model": map[string]any{}, "axis": "alpha"}, http.StatusBadRequest},
		{"negative lambda", map[string]any{"model": map[string]any{}, "axis": "lambda", "values": []float64{-1}}, http.StatusBadRequest},
		{"too many cells", map[string]any{"model": map[string]any{}, "axis": "alpha", "values": make([]float64, maxRequestSweepCells+1)}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		buf, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to its
// baseline (plus scheduler slack): a hand-rolled leak check — transport,
// handler and sweep-chain goroutines must all wind down.
func waitNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepHTTPClientHangUpMidStream pins the streaming contract: a
// client that reads a few NDJSON rows and hangs up stops the solver
// chain promptly — the remaining cells are never solved — and no
// goroutines are left behind.
func TestSweepHTTPClientHangUpMidStream(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	before := runtime.NumGoroutine()

	const cells = 512
	values := make([]float64, cells)
	for i := range values {
		values[i] = 1e-11 * (1 + float64(i)/cells)
	}
	body := map[string]any{
		"model":  map[string]any{"platform": "hera", "scenario": 3},
		"axis":   "lambda",
		"values": values,
		// Cold cells pay the full grid scan, making the chain slow enough
		// that the hang-up demonstrably lands mid-axis.
		"cold": true,
	}
	buf, _ := json.Marshal(body)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The first rows arrive while the chain is still solving the rest —
	// that they can be read at all before completion is the streaming
	// behaviour under test.
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for rows < 2 && sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows++
	}
	if rows != 2 {
		t.Fatalf("stream ended after %d rows: %v", rows, sc.Err())
	}
	cancel() // hang up mid-stream
	resp.Body.Close()

	// The engine must notice and drain promptly.
	e := srv.Engine()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep still in flight after hang-up: %+v", e.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The chain stopped short of the axis, and stays stopped: every solved
	// cold cell is one optimize-cache entry.
	solved := e.Stats().OptimizeCache.Entries
	if solved >= cells {
		t.Errorf("all %d cells solved despite the hang-up", cells)
	}
	time.Sleep(50 * time.Millisecond)
	if after := e.Stats().OptimizeCache.Entries; after != solved {
		t.Errorf("cells kept solving after the drain: %d -> %d", solved, after)
	}

	client.CloseIdleConnections()
	ts.Close()
	waitNoExtraGoroutines(t, before)
}
