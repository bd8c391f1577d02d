package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amdahlyd/internal/fleet"
	"amdahlyd/internal/service"
)

// clients is the closed loop's width: each client waits for its answer
// before sending the next request, as a planner waits for (T*, P*)
// before launching a job.
const clients = 2

// target is the system under test: one replica, or replicas behind a
// router, all in-process on loopback listeners.
type target struct {
	front    *httptest.Server
	replicas []*httptest.Server
	servers  []*service.Server
	router   *fleet.Router
	peers    []string // peer names in replica order
	client   *http.Client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func startTarget(w *workload) (*target, error) {
	t := &target{client: newClient()}
	n := max(w.replicas, 1)
	for i := 0; i < n; i++ {
		srv := service.NewServer(service.NewEngine(service.Options{}))
		t.servers = append(t.servers, srv)
		t.replicas = append(t.replicas, httptest.NewServer(srv))
		t.peers = append(t.peers, fmt.Sprintf("p%d", i+1))
	}
	if w.replicas == 0 {
		t.front = t.replicas[0]
		return t, nil
	}
	peers := make(map[string]string, n)
	for i, ts := range t.replicas {
		peers[t.peers[i]] = ts.URL
	}
	rt, err := fleet.NewRouter(fleet.RouterOptions{Peers: peers})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = rt
	t.front = httptest.NewServer(rt)
	return t, nil
}

func (t *target) close() {
	t.client.CloseIdleConnections()
	if t.router != nil {
		t.front.Close()
	}
	for _, ts := range t.replicas {
		ts.Close()
	}
}

// engineStats snapshots each replica's engine counters.
func (t *target) engineStats() []service.Stats {
	out := make([]service.Stats, len(t.servers))
	for i, s := range t.servers {
		out[i] = s.Engine().Stats()
	}
	return out
}

// outcome is what one request produced.
type outcome struct {
	status   int
	body     []byte
	rows     int
	errLine  bool
	firstRow time.Duration
	gaps     []time.Duration
}

// send posts body to path on base and reads the whole answer. Sweep
// answers are read row by row, timing the first row and the gaps.
func send(c *http.Client, base, path string, body []byte, stream bool) (outcome, error) {
	start := time.Now()
	resp, err := c.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if !stream || resp.StatusCode != http.StatusOK {
		o.body, err = io.ReadAll(resp.Body)
		return o, err
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	last := start
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if o.rows == 0 {
				o.firstRow = now.Sub(start)
			} else {
				o.gaps = append(o.gaps, now.Sub(last))
			}
			last = now
			if bytes.HasPrefix(line, []byte(`{"error"`)) {
				o.errLine = true
			}
			o.rows++
			buf.Write(line)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return o, err
		}
	}
	o.body = buf.Bytes()
	return o, nil
}

// cachedTrue marks an answer the engine served from its cache.
var cachedTrue = []byte(`"cached":true`)

// solvedAnswer reports whether an answer of kind k carries a cache flag
// (evaluate answers and sweep streams do not) and that flag is false,
// so the engine solved or simulated it for this request.
func solvedAnswer(k kind, body []byte) bool {
	return k != kSweep && k != kEvaluate && !bytes.Contains(body, cachedTrue)
}

// prefill requests the hottest ranks of every kind once, two clients
// wide, so the timed phase starts from the workload's steady state. It
// returns the latency of the answers the engine solved, by kind.
func prefill(t *target, s *stream) (*[numKinds]hist, error) {
	var jobs [][2]int
	for k := kind(0); k < numKinds; k++ {
		for r := 0; r < min(s.w.prefill, s.w.universe[k]); r++ {
			jobs = append(jobs, [2]int{int(k), r})
		}
	}
	var next atomic.Int64
	errs := make(chan error, clients)
	var solved [numKinds]hist
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local [numKinds]hist
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					break
				}
				k, r := kind(jobs[j][0]), jobs[j][1]
				t0 := time.Now()
				o, err := send(t.client, t.front.URL, kindPath[k], s.bodies[k][r], k == kSweep)
				lat := time.Since(t0)
				if err == nil && (o.status != http.StatusOK || o.errLine) {
					err = fmt.Errorf("prefill %s rank %d: status %d: %s", kindName[k], r, o.status, o.body)
				}
				if err != nil {
					errs <- err
					return
				}
				if solvedAnswer(k, o.body) {
					local[k].add(lat)
				}
			}
			mu.Lock()
			for k := range solved {
				solved[k].merge(&local[k])
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	return &solved, <-errs
}

// kept is a response retained for answer verification.
type kept struct {
	kind kind
	rank int
	body []byte
}

// loopResult aggregates one closed-loop phase.
type loopResult struct {
	elapsed               time.Duration
	window                time.Duration
	lat                   [windows]hist           // latency of answered requests, by completion window
	solved                [windows][numKinds]hist // the same, of the answers the engine solved, by kind
	sent, ok, refused     int64
	failed, withinLimit   int64
	firstRow, rowGap      hist // sweep streams: time to the first row, gaps between rows
	kept                  []kept
	cachedOK, unaryOK     int64
	samples, busy, queued float64 // scheduler occupancy sampler sums
	firstError            error
	next                  uint64 // the stream index after the last request handed out
}

// keepEvery selects one request in keepEvery for verification.
const (
	keepEvery = 61
	keepMax   = 160
)

// runLoop drives the closed loop for d from request first of the stream
// on, keeping at most keep answers for verification. When tr is non-nil
// every request is traced and followed by a replay of its layers (see
// layers.go); maxOps > 0 bounds the number of requests.
func runLoop(t *target, s *stream, first uint64, d time.Duration, maxOps int64, keep int, tr *tracer, rep *replayer) *loopResult {
	res := &loopResult{}
	var next atomic.Uint64
	next.Store(first)
	var mu sync.Mutex
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() { // scheduler occupancy sampler
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				n := float64(len(t.servers))
				for _, srv := range t.servers {
					st := srv.Engine().Stats()
					res.busy += float64(st.InFlight) / float64(st.MaxConcurrent) / n
					res.queued += float64(st.Queued) / n
				}
				res.samples++
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(d)
	res.window = d / windows
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &loopResult{}
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if maxOps > 0 && int64(i-first) >= maxOps {
					break
				}
				k, r := s.at(i)
				body := s.bodies[k][r]
				root := tr.begin("request", 0, int64(i))
				hop := tr.begin("http.roundtrip", root.id(), int64(i))
				t0 := time.Now()
				o, err := send(t.client, t.front.URL, kindPath[k], body, k == kSweep)
				lat := time.Since(t0)
				hop.end()
				local.sent++
				good := err == nil && o.status == http.StatusOK && !o.errLine
				win := min(int(time.Since(start)/res.window), windows-1)
				switch {
				case good:
					local.ok++
					local.lat[win].add(lat)
					if lat <= s.w.limit {
						local.withinLimit++
					}
				case err == nil && o.status == http.StatusServiceUnavailable:
					local.refused++
				default:
					local.failed++
					if local.firstError == nil {
						if err == nil {
							err = fmt.Errorf("%s: status %d: %.200s", kindPath[k], o.status, o.body)
						}
						local.firstError = err
					}
				}
				if good && k == kSweep {
					local.firstRow.add(o.firstRow)
					for _, g := range o.gaps {
						local.rowGap.add(g)
					}
				}
				if good && k != kSweep && k != kEvaluate { // evaluate answers carry no cache flag
					local.unaryOK++
					if solvedAnswer(k, o.body) {
						local.solved[win][k].add(lat)
					} else {
						local.cachedOK++
					}
				}
				if good && hash(s.seed, 3, i)%keepEvery == 0 && len(local.kept) < keep/clients {
					local.kept = append(local.kept, kept{kind: k, rank: r, body: o.body})
				}
				if good && rep != nil && k != kSweep {
					if err := rep.replay(tr, root.id(), int64(i), k, body); err != nil {
						local.failed++
						if local.firstError == nil {
							local.firstError = fmt.Errorf("replay of %s: %w", kindPath[k], err)
						}
					}
				}
				root.end()
			}
			mu.Lock()
			res.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.next = next.Load()
	close(stop)
	<-sampled
	return res
}

// runWindows drives the closed loop for d as windows segments of
// d/windows each, the stream running on across them, and calls between
// before every segment but the first; segment i becomes window i of the
// result. Work that between does at those points is spread over the
// whole timed phase, so a slow spell of the machine weighs on it no
// more than on the loop's window medians.
func runWindows(t *target, s *stream, d time.Duration, between func() error) (*loopResult, error) {
	res := &loopResult{window: d / windows}
	for i := 0; i < windows; i++ {
		if i > 0 {
			if err := between(); err != nil {
				return nil, err
			}
		}
		seg := runLoop(t, s, res.next, res.window, 0, keepMax/windows, nil, nil)
		for j := range seg.lat {
			res.mergeWindow(i, seg, j)
		}
		res.mergeTotals(seg)
		res.elapsed += seg.elapsed
		res.next = seg.next
	}
	return res, nil
}

func (r *loopResult) merge(o *loopResult) {
	for i := range r.lat {
		r.mergeWindow(i, o, i)
	}
	r.mergeTotals(o)
}

// mergeWindow adds o's window j to r's window i.
func (r *loopResult) mergeWindow(i int, o *loopResult, j int) {
	r.lat[i].merge(&o.lat[j])
	for k := range r.solved[i] {
		r.solved[i][k].merge(&o.solved[j][k])
	}
}

// mergeTotals adds o's counts, histograms and samples outside the
// windows.
func (r *loopResult) mergeTotals(o *loopResult) {
	r.sent += o.sent
	r.ok += o.ok
	r.refused += o.refused
	r.failed += o.failed
	r.withinLimit += o.withinLimit
	r.firstRow.merge(&o.firstRow)
	r.rowGap.merge(&o.rowGap)
	r.kept = append(r.kept, o.kept...)
	r.cachedOK += o.cachedOK
	r.unaryOK += o.unaryOK
	r.samples += o.samples
	r.busy += o.busy
	r.queued += o.queued
	if r.firstError == nil {
		r.firstError = o.firstError
	}
}

// windows is the number of equal windows a timed phase is cut into;
// the reported rates and percentiles are medians over the windows, so a
// burst of outside load in one window cannot move them.
const windows = 10

// windowed returns the median over windows of the completion rate and
// of the p50 and p99 latency (ms), and the per-window rates.
func (r *loopResult) windowed() (rps, p50, p99 float64, rates, p99s []float64) {
	var p50s []float64
	for i := range r.lat {
		h := &r.lat[i]
		rates = append(rates, float64(h.total)/r.window.Seconds())
		if h.total > 0 {
			p50s = append(p50s, h.quantile(0.5))
			p99s = append(p99s, h.quantile(0.99))
		}
	}
	return median(append([]float64(nil), rates...)), median(p50s), median(append([]float64(nil), p99s...)), rates, p99s
}

// solveMs is the median over windows of solveTime, and the number of
// solved answers behind it.
func (r *loopResult) solveMs(w *workload) (float64, int64) {
	var per []float64
	var n int64
	for i := range r.solved {
		if v, c := solveTime(w, &r.solved[i]); c > 0 {
			per = append(per, v)
			n += c
		}
	}
	return median(per), n
}

// solveTime is the mean time (ms) to solve a request of w's mix: the
// median latency of each kind's solved answers, weighted by the kind's
// share. The solvers' latencies lie a decade or more apart, so a median
// over all solved answers would sit in a gap between them and jump; a
// median per kind stays inside one solver's spread. It also returns
// the number of solved answers.
func solveTime(w *workload, hs *[numKinds]hist) (float64, int64) {
	var sum, weight float64
	var n int64
	for k := range hs {
		if h := &hs[k]; h.total > 0 {
			sum += float64(w.shares[k]) * h.quantile(0.5)
			weight += float64(w.shares[k])
			n += h.total
		}
	}
	return sum / weight, n
}

// all merges the windows.
func (r *loopResult) all() *hist {
	var h hist
	for i := range r.lat {
		h.merge(&r.lat[i])
	}
	return &h
}

// sortedKept orders the verification sample deterministically.
func (r *loopResult) sortedKept() []kept {
	out := append([]kept(nil), r.kept...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		return out[i].rank < out[j].rank
	})
	return out
}

// routerStats snapshots the router ledger without contacting replicas.
func (t *target) routerStats() fleet.RouterStats {
	if t.router == nil {
		return fleet.RouterStats{}
	}
	// A nil context asks for the router's own ledger only, without
	// fetching each replica's /v1/stats.
	return t.router.Stats(nil)
}
