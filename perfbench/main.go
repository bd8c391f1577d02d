// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the planning service (one replica or a fleet,
// in-process on loopback listeners) or the batch grid executor, checks
// every sampled answer against the library, and prints its metrics:
//
//	perfbench --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced replay of
// the same seeded stream. The line before it is the full report: the
// machine, the sample counts, every metric measured and, in traced mode,
// a per-span summary. The spans themselves go to .bench_build/traces. The exit
// status is non-zero when any answer is wrong or any operation fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workDir holds span files and grid output, relative to the directory
// the command runs in.
const workDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// report is the full record of one run, printed before the result line.
type report struct {
	Workload       string              `json:"workload"`
	Seed           uint64              `json:"seed"`
	Seconds        float64             `json:"seconds"`
	Trace          bool                `json:"trace"`
	Env            envInfo             `json:"env"`
	Why            string              `json:"why"`
	Load           string              `json:"load"`
	LatencyLimitMs float64             `json:"latency_limit_ms"`
	Samples        map[string]int64    `json:"samples"`
	WindowRPS      []float64           `json:"window_rps,omitempty"`
	WindowP99Ms    []float64           `json:"window_p99_ms,omitempty"`
	PassMs         []float64           `json:"pass_ms,omitempty"`
	EndToEnd       map[string]float64  `json:"end_to_end,omitempty"`
	PerLayer       map[string]float64  `json:"per_layer,omitempty"`
	NotApplicable  []string            `json:"not_applicable,omitempty"`
	Spans          map[string]spanStat `json:"spans,omitempty"`
	TraceFile      string              `json:"trace_file,omitempty"`
	Errors         []string            `json:"errors,omitempty"`

	attempted, failed int64
	wrong             int
}

// maxErrors bounds the errors echoed on the report line.
const maxErrors = 8

func (r *report) errorf(wrong bool, err error) {
	if wrong {
		r.wrong++
	}
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-warm, serve-churn, fleet-warm or grid-batch")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	rep := &report{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Env: envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPU: cpuModel(), Go: runtime.Version()},
		Samples: make(map[string]int64),
	}
	var err error
	if *name == "grid-batch" {
		err = runGrid(rep, *seed, d, rep.Trace)
	} else if w := findWorkload(*name); w != nil {
		err = runServe(rep, w, *seed, d, rep.Trace)
	} else {
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dropNaN(rep.EndToEnd)
	dropNaN(rep.PerLayer)
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric)}
	res.Correct = rep.wrong == 0 && rep.failed == 0
	defs, values := endToEnd, rep.EndToEnd
	if rep.Trace {
		defs, values = perLayer, rep.PerLayer
		for _, def := range perLayer {
			if _, ok := values[def.Name]; !ok {
				rep.NotApplicable = append(rep.NotApplicable, def.Name)
			}
		}
	}
	for _, def := range defs {
		res.Metrics[def.Name] = metric{Value: values[def.Name], Unit: def.Unit}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answers, %d failed of %d: %v\n",
			rep.wrong, rep.failed, rep.attempted, rep.Errors)
		return 1
	}
	return 0
}

func runServe(rep *report, w *workload, seed uint64, d time.Duration, traced bool) error {
	rep.Why, rep.LatencyLimitMs = w.why, ms(w.limit)
	rep.Load = fmt.Sprintf("closed loop, %d clients, %d replica(s)", clients, max(w.replicas, 1))
	s, err := newStream(w, seed)
	if err != nil {
		return err
	}
	// The run sets up once before the timed phase, for the target it
	// measures, and once more before each further window of the untraced
	// phase, on a fresh target it then closes; setup_s is the median.
	var setups, prefillSolved []float64
	var prefillSolvedN int64
	setUp := func() (*target, error) {
		start := time.Now()
		t, err := startTarget(w)
		if err != nil {
			return nil, err
		}
		solved, err := prefill(t, s)
		if err != nil {
			t.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		v, n := solveTime(w, solved)
		prefillSolved = append(prefillSolved, v)
		prefillSolvedN += n
		return t, nil
	}
	tg, err := setUp()
	if err != nil {
		return err
	}

	untraced := d
	if traced {
		untraced = d * 2 / 5
	}
	before, rBefore := tg.engineStats(), tg.routerStats()
	lr, err := runWindows(tg, s, untraced, func() error {
		t, err := setUp()
		if err == nil {
			t.close()
		}
		return err
	})
	if err != nil {
		tg.close()
		return err
	}
	after, rAfter := tg.engineStats(), tg.routerStats()

	rps, p50, p99, rates, p99s := lr.windowed()
	untracedP50 := lr.all().quantile(0.5)
	rep.WindowRPS, rep.WindowP99Ms = rates, p99s
	rep.Samples["requests"], rep.Samples["latency"] = lr.sent, lr.all().total
	rep.Samples["latency_per_window"] = lr.all().total / windows
	rep.Samples["sweeps"] = lr.firstRow.total
	// The warm workloads answer every timed request from cache, so their
	// solved answers are the set-up prefills', median over the set-ups.
	solveMs, solvedN := lr.solveMs(w)
	if w.warm() {
		solveMs, solvedN = median(prefillSolved), prefillSolvedN
	}
	rep.Samples["solved"] = solvedN
	rep.EndToEnd = map[string]float64{
		"setup_s":            median(setups),
		"throughput_rps":     rps,
		"latency_p50_ms":     p50,
		"latency_p99_ms":     p99,
		"solve_ms":           solveMs,
		"slo_met_ratio":      ratio(float64(lr.withinLimit), float64(lr.sent)),
		"sweep_first_row_ms": lr.firstRow.quantile(0.5),
	}
	counters := counterMetrics(before, after, rBefore, rAfter, lr, w.replicas > 0)
	counters["service.sweep_row_gap_us"] = lr.rowGap.quantile(0.5) * 1e3
	rep.attempted, rep.failed = lr.sent, lr.failed+lr.refused
	if lr.firstError != nil {
		rep.errorf(false, lr.firstError)
	}
	sample := lr.sortedKept()
	heldMB := heapMB()

	rep.PerLayer = counters
	if traced {
		tr := newTracer()
		tl := runLoop(tg, s, 0, d-untraced, maxTraced, keepMax, tr, newReplayer(tg))
		rep.attempted += tl.sent
		rep.failed += tl.failed + tl.refused
		if tl.firstError != nil {
			rep.errorf(false, tl.firstError)
		}
		sample = append(sample, tl.sortedKept()...)
		tp50 := tl.all().quantile(0.5)
		rep.PerLayer["loadgen.trace_overhead_ratio"] = ratio(tp50, untracedP50)
		rep.PerLayer["loadgen.traced_ops"] = float64(tl.sent)
		spanMetrics(rep, tr.spans, untracedP50, w.replicas > 0)
		for k, v := range microMetrics(tg, s, sample) {
			rep.PerLayer[k] = v
		}
		for k, v := range solverMetrics(seed) {
			rep.PerLayer[k] = v
		}
		if err := writeTrace(rep, tr); err != nil {
			tg.close()
			return err
		}
	}
	verifyServe(rep, tg, s, sample)
	rep.Samples["verified"] = int64(len(sample))
	rep.EndToEnd["error_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	// What the servers retain is the live heap with them up less the live
	// heap once they are shut down and dropped. The benchmark's own
	// request bodies, histograms and samples must be in both readings,
	// hence the KeepAlives.
	tg.close()
	tg = nil
	rep.EndToEnd["heap_retained_mb"] = heldMB - heapMB()
	runtime.KeepAlive(s)
	runtime.KeepAlive(lr)
	runtime.KeepAlive(sample)
	return nil
}

// maxTraced bounds the traced replay, which keeps every span in memory.
const maxTraced = 4000

// heapMB is the live heap after garbage collection. The second cycle
// empties the sync.Pool victim caches the first one only demotes, so
// pooled buffers do not make the reading depend on timing.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// verifyServe re-derives every sampled answer with the library, and on
// a fleet also compares it byte for byte with a standalone replica's.
func verifyServe(rep *report, tg *target, s *stream, sample []kept) {
	var ref *target
	if tg.router != nil {
		var err error
		if ref, err = startTarget(&workload{}); err != nil {
			rep.errorf(true, err)
			rep.failed++
			return
		}
		defer ref.close()
	}
	exp := newExpected()
	for _, kp := range sample {
		body := s.bodies[kp.kind][kp.rank]
		var err error
		if kp.kind == kSweep {
			err = exp.verifySweep(body, kp.body)
		} else {
			err = exp.verifyUnary(kp.kind, body, kp.body)
		}
		if err == nil && ref != nil && kp.kind != kSweep {
			var o outcome
			for i := 0; i < 2 && err == nil; i++ { // the second answer is warm
				o, err = send(ref.client, ref.front.URL, kindPath[kp.kind], body, false)
			}
			if err == nil && string(normalizeCached(o.body)) != string(normalizeCached(kp.body)) {
				err = fmt.Errorf("fleet answer differs from a standalone replica's:\n fleet %s standalone %s", kp.body, o.body)
			}
		}
		if err != nil {
			rep.errorf(true, fmt.Errorf("%s rank %d: %w", kindName[kp.kind], kp.rank, err))
			rep.failed++
		}
	}
}

// spanMetrics turns the traced replay's spans into layer metrics.
func spanMetrics(rep *report, spans []span, e2eP50 float64, isFleet bool) {
	rep.Spans = summarize(spans)
	p50us := func(name string) float64 { return rep.Spans[name].P50us }
	for _, m := range []struct{ metric, span string }{
		{"service.decode_us", "service.decode"},
		{"service.encode_us", "service.encode"},
		{"service.build_us", "service.build"},
		{"service.engine_hit_us", "service.engine"},
		{"service.handler_us", "service.handler"},
		{"fleet.shard_key_us", "fleet.shard_key"},
	} {
		rep.PerLayer[m.metric] = p50us(m.span)
	}
	rep.PerLayer["fleet.ring_owner_ns"] = p50us("fleet.ring_owner") * 1e3
	rep.PerLayer["service.transport_us"] = e2eP50*1e3 - p50us("service.handler")
	if isFleet {
		// Pair each request's router round trip with the same body sent
		// straight to its owner.
		byReq := make(map[int64][2]int64)
		for _, s := range spans {
			v := byReq[s.Req]
			switch s.Name {
			case "http.roundtrip":
				v[0] = s.End - s.Start
			case "fleet.direct":
				v[1] = s.End - s.Start
			}
			byReq[s.Req] = v
		}
		var hops []float64
		for _, v := range byReq {
			if v[0] > 0 && v[1] > 0 {
				hops = append(hops, float64(v[0]-v[1])/1e3)
			}
		}
		rep.PerLayer["fleet.router_hop_us"] = median(hops)
	}
}

func writeTrace(rep *report, tr *tracer) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", rep.Workload, rep.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	rep.TraceFile = path
	return f.Close()
}

// dropNaN removes metrics a run could not measure (a median of no
// samples), so they read as not applicable rather than as a number.
func dropNaN(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

// cpuModel returns the first processor's model name from /proc/cpuinfo,
// or "unknown" where there is none.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
