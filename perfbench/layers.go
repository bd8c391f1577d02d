package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/fleet"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/service"
	"amdahlyd/internal/sim"
)

// replayer re-runs a served request's layers through their public
// functions, one span each, right after the request itself: decode,
// build (platform lookup, cache key), shard key and ring owner, the
// owning replica's engine call (a warm hit: the request just filled it),
// encode, and the whole handler into a recorder. On a fleet it also
// sends the body straight to the owner, for the router hop.
type replayer struct {
	t     *target
	ring  *fleet.Ring
	index map[string]int
}

func newReplayer(t *target) *replayer {
	rp := &replayer{t: t, index: make(map[string]int)}
	if t.router != nil {
		rp.ring = t.router.Ring()
	} else {
		// A single replica has no router; time ownership on the ring a
		// three-replica fleet would use.
		rp.ring = fleet.NewRing()
		for _, p := range []string{"p1", "p2", "p3"} {
			rp.ring.Add(p)
		}
	}
	for i, p := range t.peers {
		rp.index[p] = i
	}
	return rp
}

// Every body replayed was just answered with 200, so an error here means
// a layer disagrees with the server about its input; it is returned and
// counted as a failed operation.
func (rp *replayer) replay(tr *tracer, parent, req int64, k kind, body []byte) error {
	var q any
	var err error
	tr.do("service.decode", parent, req, func() { q, err = decodeRequest(k, body) })
	if err != nil {
		return err
	}
	var b built
	tr.do("service.build", parent, req, func() { b, err = build(q) })
	if err != nil {
		return err
	}
	if k == kHeteroOptimize {
		tr.do("core.cache_key", parent, req, func() { _, err = b.hm.CacheKey() })
	} else {
		tr.do("platform.lookup", parent, req, func() { _, err = platform.Lookup(b.spec.Platform) })
		if err != nil {
			return err
		}
		tr.do("core.cache_key", parent, req, func() { _, err = b.m.CacheKey() })
	}
	if err != nil {
		return err
	}
	var key, owner string
	tr.do("fleet.shard_key", parent, req, func() { key, err = fleet.ShardKey(kindPath[k], body) })
	if err != nil {
		return err
	}
	tr.do("fleet.ring_owner", parent, req, func() { owner = rp.ring.Owner(key) })
	i := rp.index[owner] // 0 on a single replica
	srv := rp.t.servers[i]
	var resp any
	tr.do("service.engine", parent, req, func() { resp, err = answer(context.Background(), srv.Engine(), q, b) })
	if err != nil {
		return err
	}
	tr.do("service.encode", parent, req, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	tr.do("service.handler", parent, req, func() {
		srv.ServeHTTP(rec, httptest.NewRequest("POST", kindPath[k], bytes.NewReader(body)))
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler replay: status %d", rec.Code)
	}
	if rp.t.router == nil {
		return nil
	}
	var o outcome
	tr.do("fleet.direct", parent, req, func() {
		o, err = send(rp.t.client, rp.t.replicas[i].URL, kindPath[k], body, false)
	})
	if err == nil && o.status != http.StatusOK {
		err = fmt.Errorf("direct send to owner: status %d", o.status)
	}
	return err
}

// perOp runs fn n times on one goroutine and returns its mean time and
// heap allocations per call.
func perOp(n int, fn func(i int)) (ns, allocs, bytes float64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&b)
	calls := float64(n)
	return float64(el) / calls, float64(b.Mallocs-a.Mallocs) / calls, float64(b.TotalAlloc-a.TotalAlloc) / calls
}

// microMetrics times the per-call layers on the workload's own inputs
// with the load stopped: platform lookup, cache key and the handler's
// allocations.
func microMetrics(t *target, s *stream, sample []kept) map[string]float64 {
	out := make(map[string]float64)
	var names []string
	var models []core.Model
	for r := 0; r < min(64, s.w.universe[kOptimize]); r++ {
		q, _ := decodeRequest(kOptimize, s.bodies[kOptimize][r])
		spec := q.(service.OptimizeRequest).Model
		m, _, err := spec.Build()
		if err != nil {
			continue
		}
		names = append(names, spec.Platform)
		models = append(models, m)
	}
	// The names and models come from requests the server answered, so
	// neither call can fail here.
	ns, allocs, _ := perOp(20000, func(i int) { _, _ = platform.Lookup(names[i%len(names)]) })
	out["platform.lookup_ns"], out["platform.lookup_allocs"] = ns, allocs
	ns, allocs, _ = perOp(20000, func(i int) { _, _ = models[i%len(models)].CacheKey() })
	out["core.cache_key_us"], out["core.cache_key_allocs"] = ns/1e3, allocs

	// The handler runs on replica 0; on a fleet only the bodies it owns
	// are warm hits there.
	rp := newReplayer(t)
	var unary []kept
	for _, kp := range sample {
		if kp.kind == kSweep {
			continue
		}
		if t.router != nil {
			key, _ := fleet.ShardKey(kindPath[kp.kind], s.bodies[kp.kind][kp.rank])
			if rp.index[rp.ring.Owner(key)] != 0 {
				continue
			}
		}
		unary = append(unary, kp)
	}
	if len(unary) > 0 {
		srv := t.servers[0]
		_, allocs, nbytes := perOp(4000, func(i int) {
			kp := unary[i%len(unary)]
			srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", kindPath[kp.kind],
				bytes.NewReader(s.bodies[kp.kind][kp.rank])))
		})
		out["service.handler_allocs"], out["service.handler_bytes"] = allocs, nbytes
	}
	return out
}

// solverMetrics times the solvers cold, straight through their library
// entry points, on models drawn from the seeded parameter grids.
func solverMetrics(seed uint64) map[string]float64 {
	out := make(map[string]float64)
	const n = 6
	var models []core.Model
	var specs []service.ModelSpec
	for i := 0; i < n; i++ {
		spec := modelSpec(int(hash(seed, 9, uint64(i)) % modelSpace))
		m, _, err := spec.Build()
		if err != nil {
			continue
		}
		specs = append(specs, spec)
		models = append(models, m)
	}
	var times, evals []float64
	for _, m := range models {
		start := time.Now()
		r, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
		if err == nil {
			times = append(times, ms(time.Since(start)))
			evals = append(evals, float64(r.Evals))
		}
	}
	out["optimize.pattern_ms"], out["optimize.evals_per_solve"] = median(times), mean(evals)

	times = times[:0]
	for _, m := range models {
		e := service.NewEngine(service.Options{})
		start := time.Now()
		if _, _, err := e.Optimize(context.Background(), m, optimize.PatternOptions{}); err == nil {
			times = append(times, ms(time.Since(start)))
		}
	}
	out["service.engine_miss_ms"] = median(times)

	times = times[:0]
	for _, m := range models {
		start := time.Now()
		if _, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, 1.0/15), multilevel.PatternOptions{}); err == nil {
			times = append(times, ms(time.Since(start)))
		}
	}
	out["multilevel.pattern_ms"] = median(times)

	// Warm sweep cells: an 8-value alpha chain per model, first cell
	// (cold) excluded.
	var single, two []float64
	for _, spec := range specs {
		sv := optimize.NewSweepSolver(optimize.SweepOptions{})
		mv := multilevel.NewSweepSolver(multilevel.SweepOptions{})
		for c := 0; c < 8; c++ {
			m, _, err := axisSpec(spec, "alpha", *spec.Alpha+0.01*float64(c)).Build()
			if err != nil {
				break
			}
			start := time.Now()
			_, err1 := sv.Solve(m)
			mid := time.Now()
			_, err2 := mv.Solve(m, multilevel.InMemoryFraction(m, 1.0/15))
			end := time.Now()
			if c > 0 && err1 == nil && err2 == nil {
				single = append(single, us(mid.Sub(start)))
				two = append(two, us(end.Sub(mid)))
			}
		}
	}
	out["optimize.sweep_cell_us"], out["multilevel.sweep_cell_us"] = median(single), median(two)

	times, single = times[:0], single[:0]
	for i := 0; i < 4; i++ {
		p := int(hash(seed, 10, uint64(i)) % uint64(4*6*nAlpha))
		hv := hetero.NewSweepSolver(hetero.SweepOptions{})
		for c, comm := range []float64{0, 1e-6, 2e-6, 4e-6, 8e-6} {
			spec := heteroSpec(p)
			spec.Comm = comm
			hm, _, err := spec.Build()
			if err != nil {
				break
			}
			if c == 0 {
				start := time.Now()
				if _, err := hetero.OptimalPattern(hm, hetero.PatternOptions{}); err == nil {
					times = append(times, ms(time.Since(start)))
				}
			}
			start := time.Now()
			_, err = hv.Solve(hm)
			if c > 0 && err == nil {
				single = append(single, us(time.Since(start)))
			}
		}
	}
	out["hetero.pattern_ms"], out["hetero.sweep_cell_us"] = median(times), median(single)

	times = times[:0]
	var rates []float64
	for i, m := range models {
		pl, _ := platform.Lookup(specs[i].Platform)
		t := m.OptimalPeriodFixedP(pl.Processors)
		cfg := sim.RunConfig{Runs: 50, Patterns: 60, Seed: 1 + uint64(i), Workers: 1}
		start := time.Now()
		if _, err := sim.SimulateContext(context.Background(), m, t, pl.Processors, cfg); err == nil {
			el := time.Since(start)
			times = append(times, ms(el))
			rates = append(rates, float64(cfg.Runs*cfg.Patterns)/el.Seconds())
		}
	}
	out["sim.campaign_ms"], out["sim.patterns_per_s"] = median(times), median(rates)
	for k, v := range out {
		if math.IsNaN(v) {
			out[k] = 0
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
