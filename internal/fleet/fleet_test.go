package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amdahlyd/internal/service"
)

// The multi-node integration suite: N real service replicas plus the
// router, all in one process (httptest servers), so fleet behaviour —
// bit-identity, failover, hedging, scripted fault plans, warm-fill — is
// exercised end to end over real HTTP under -race.

type replica struct {
	name string
	srv  *service.Server
	ts   *httptest.Server
}

// newFleet starts n replicas (wrapped in the fault controller) and a
// router over them, with fast retry timing and hedging off unless the
// test opts in.
func newFleet(t *testing.T, n int, ctrl *Controller, hedgeAfter time.Duration) (*Router, []*replica) {
	t.Helper()
	peers := make(map[string]string, n)
	reps := make([]*replica, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i+1)
		srv := service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2}))
		var h http.Handler = srv
		if ctrl != nil {
			h = ctrl.Wrap(name, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		peers[name] = ts.URL
		reps[i] = &replica{name: name, srv: srv, ts: ts}
	}
	rt, err := NewRouter(RouterOptions{
		Peers:      peers,
		HedgeAfter: hedgeAfter,
		RetryBase:  time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt, reps
}

func byName(reps []*replica, name string) *replica {
	for _, r := range reps {
		if r.name == name {
			return r
		}
	}
	return nil
}

const heteroTopology = `{"name":"hera+accel","comm":0.02,"scenario":1,"groups":[` +
	`{"name":"cpu","lambda_ind":1.69e-8,"f":0.2188,"s":0.7812,"size":25600,"speed":1,"cp":300,"vp":15},` +
	`{"name":"accel","lambda_ind":8.45e-7,"f":0.2188,"s":0.7812,"size":128,"speed":8,"cp":60,"vp":4}]}`

// fleetRequests covers every shardable request class, including the
// multilevel (ml1|) and heterogeneous (hg1|) key namespaces. Sweeps are
// cold so rows are bitwise independent of request history.
func fleetRequests() []struct{ path, body string } {
	return []struct{ path, body string }{
		{"/v1/evaluate", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":3,"alpha":0.05}}`},
		{"/v1/optimize", `{"model":{"platform":"coastal","scenario":2}}`},
		{"/v1/optimize", `{"model":{"platform":"atlas","scenario":5,"downtime":600}}`},
		{"/v1/simulate", `{"model":{"platform":"hera"},"runs":10,"patterns":10,"seed":7}`},
		{"/v1/multilevel/optimize", `{"model":{"platform":"hera","scenario":3}}`},
		{"/v1/multilevel/simulate", `{"model":{"platform":"hera","scenario":3},"runs":5,"patterns":5,"seed":3}`},
		{"/v1/hetero/optimize", `{"topology":` + heteroTopology + `}`},
		{"/v1/sweep", `{"model":{"platform":"hera","scenario":1},"axis":"lambda","values":[1e-10,1e-9,1e-8],"cold":true}`},
		{"/v1/sweep", `{"model":{"platform":"hera","scenario":3},"axis":"alpha","values":[0.05,0.1,0.2],"cold":true,"multilevel":{}}`},
		{"/v1/sweep", `{"axis":"comm","values":[0.01,0.02],"cold":true,"hetero":{"topology":` + heteroTopology + `}}`},
		// Repeat of an earlier optimize: must be cached=true on both sides
		// (the fleet routes same-model requests to the same replica).
		{"/v1/optimize", `{"model":{"platform":"hera","scenario":1}}`},
	}
}

func post(t *testing.T, base, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// TestFleetBitIdenticalToSingleNode is the acceptance criterion: an
// N-node fleet must be byte-for-byte indistinguishable from one replica
// for every request class.
func TestFleetBitIdenticalToSingleNode(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	rt, _ := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	for i, req := range fleetRequests() {
		wantCode, wantBody := post(t, single.URL, req.path, req.body)
		gotCode, gotBody := post(t, front.URL, req.path, req.body)
		if gotCode != wantCode {
			t.Fatalf("request %d %s: fleet status %d, single %d\nfleet body: %s", i, req.path, gotCode, wantCode, gotBody)
		}
		if gotBody != wantBody {
			t.Fatalf("request %d %s: fleet and single node disagree\nfleet:  %s\nsingle: %s", i, req.path, gotBody, wantBody)
		}
	}
}

// TestFleetFailoverOnReplicaDeathMidRun kills one replica partway
// through a request run: every request must still return the right
// answer (re-routed within the retry budget), and the health checker
// must evict the corpse from the ring.
func TestFleetFailoverOnReplicaDeathMidRun(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	rt, reps := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	// A plain client without retries: the router alone must absorb the
	// failure.
	client := &http.Client{}
	do := func(i int, alpha float64) {
		t.Helper()
		body := fmt.Sprintf(`{"model":{"platform":"hera","scenario":1,"alpha":%g}}`, alpha)
		_, want := post(t, single.URL, "/v1/optimize", body)
		resp, err := client.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if string(got) != want {
			t.Fatalf("request %d: wrong answer after failover\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		do(i, 0.01+float64(i)*0.01)
	}
	// Kill p2 mid-run: in-flight and future connections die at the socket.
	dead := reps[1]
	dead.ts.CloseClientConnections()
	dead.ts.Close()
	for i := 10; i < 30; i++ {
		do(i, 0.01+float64(i)*0.01)
	}
	st := rt.Stats(nil)
	if st.Peers[dead.name].Errors == 0 {
		t.Fatalf("no errors recorded against the killed peer: %+v", st.Peers)
	}
	var reroutes uint64
	for _, ps := range st.Peers {
		reroutes += ps.Failovers + ps.Retries
	}
	if reroutes == 0 {
		t.Fatalf("killed a replica mid-run but nothing failed over: %+v", st.Peers)
	}
	// The health checker notices within FailAfter probes and evicts.
	peers := map[string]string{}
	for _, r := range reps {
		peers[r.name] = r.ts.URL
	}
	hc := NewHealthChecker(rt.Ring(), peers, HealthOptions{Timeout: 200 * time.Millisecond})
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if rt.Ring().Has(dead.name) {
		t.Fatalf("dead peer still in ring after two failed probes")
	}
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d members; want 2", rt.Ring().Len())
	}
}

// TestFleetConvergesThrough503Storm scripts a shedding owner: the
// request's owner answers 503 (with Retry-After) twice, then heals; the
// router must converge without surfacing the 503.
func TestFleetConvergesThrough503Storm(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":2}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owner(key)
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {Code: 503, Reqs: 2}})

	code, respBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("status %d through 503 storm: %s", code, respBody)
	}
	var res service.OptimizeResponse
	if err := json.Unmarshal([]byte(respBody), &res); err != nil || res.P <= 0 {
		t.Fatalf("implausible optimize result %s (err %v)", respBody, err)
	}
	st := rt.Stats(nil)
	if st.Peers[owner].Errors == 0 {
		t.Fatalf("owner's 503s not recorded: %+v", st.Peers)
	}
}

// TestFleetDropsConnectionAndFailsOver scripts a replica dying on the
// wire (connection aborted, no response): the router must re-route and
// the client must see only the good answer.
func TestFleetDropsConnectionAndFailsOver(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"coastalssd","scenario":4}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owner(key)
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {Drop: true, Reqs: 1}})

	code, respBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("status %d after connection drop: %s", code, respBody)
	}
	st := rt.Stats(nil)
	var failovers uint64
	for _, ps := range st.Peers {
		failovers += ps.Failovers
	}
	if failovers == 0 {
		t.Fatalf("drop did not fail over: %+v", st.Peers)
	}
}

// TestFleetHedgesSlowOwner scripts a slow owner: the hedge to the ring
// successor must win long before the owner's injected delay expires.
func TestFleetHedgesSlowOwner(t *testing.T) {
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, 10*time.Millisecond)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"atlas","scenario":1}}`
	key, err := ShardKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owner(key)
	ctrl.SetPlan(FaultPlan{owner + "|optimize": {DelayMS: 2000, Reqs: 1}})

	start := time.Now()
	code, respBody := post(t, front.URL, "/v1/optimize", body)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, respBody)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("hedge did not rescue the request: took %s against a 2 s owner delay", elapsed)
	}
	st := rt.Stats(nil)
	var hedges uint64
	for _, ps := range st.Peers {
		hedges += ps.Hedges
	}
	if hedges == 0 {
		t.Fatalf("slow owner produced no hedges: %+v", st.Peers)
	}
}

// TestFleetSweepMidStreamFailover kills the owner after 3 NDJSON rows:
// the router must resume the remaining axis on the successor and the
// spliced stream must be byte-identical to a single node's.
func TestFleetSweepMidStreamFailover(t *testing.T) {
	single := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{MaxConcurrent: 2})))
	defer single.Close()
	ctrl := NewController(nil)
	rt, _ := newFleet(t, 3, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":1},"axis":"alpha",` +
		`"values":[0.01,0.02,0.05,0.1,0.15,0.2,0.3,0.4],"cold":true}`
	key, err := ShardKey("/v1/sweep", []byte(body))
	if err != nil {
		t.Fatalf("ShardKey: %v", err)
	}
	owner := rt.Ring().Owner(key)
	ctrl.SetPlan(FaultPlan{owner + "|sweep": {Drop: true, DropAfterRows: 3, Reqs: 1}})

	_, want := post(t, single.URL, "/v1/sweep", body)
	code, got := post(t, front.URL, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, got)
	}
	if got != want {
		t.Fatalf("spliced sweep differs from single node\ngot:  %s\nwant: %s", got, want)
	}
	if n := len(strings.Split(strings.TrimSpace(got), "\n")); n != 8 {
		t.Fatalf("spliced sweep has %d rows; want 8", n)
	}
	st := rt.Stats(nil)
	if st.Peers[owner].Errors == 0 {
		t.Fatalf("mid-stream death not recorded against owner: %+v", st.Peers)
	}
}

// TestFleetWarmFillOnRejoin walks a replica through death and rebirth:
// while it is out, its neighbour serves (and caches) its keyspace; on
// rejoin the checker warm-fills it from that neighbour, so its first
// request back is a cache hit with bit-identical numbers.
func TestFleetWarmFillOnRejoin(t *testing.T) {
	ctrl := NewController(nil)
	rt, reps := newFleet(t, 2, ctrl, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	peers := map[string]string{}
	for _, r := range reps {
		peers[r.name] = r.ts.URL
	}
	hc := NewHealthChecker(rt.Ring(), peers, HealthOptions{Timeout: 200 * time.Millisecond})

	// Find a model owned by p2 so its eviction actually moves traffic.
	var body, key string
	for alpha := 0.01; alpha < 0.5; alpha += 0.01 {
		b := fmt.Sprintf(`{"model":{"platform":"hera","scenario":6,"alpha":%g}}`, alpha)
		k, err := ShardKey("/v1/optimize", []byte(b))
		if err != nil {
			t.Fatalf("ShardKey: %v", err)
		}
		if rt.Ring().Owner(k) == "p2" {
			body, key = b, k
			break
		}
	}
	if body == "" {
		t.Fatal("no test model owned by p2; ring is degenerate")
	}

	// p2 flunks two probes and is evicted.
	ctrl.SetPlan(FaultPlan{"p2|readyz": {Code: 503, Reqs: 2}})
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if rt.Ring().Has("p2") {
		t.Fatal("p2 still in ring after failed probes")
	}

	// With p2 out, p1 owns (and caches) the key.
	code, firstBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("optimize while p2 down: status %d: %s", code, firstBody)
	}
	if got := rt.Ring().Owner(key); got != "p1" {
		t.Fatalf("key owned by %q while p2 is out; want p1", got)
	}

	// p2 heals (fault budget spent): two passing probes readmit it, warm-
	// filled from its neighbour first.
	hc.ProbeOnce(context.Background())
	hc.ProbeOnce(context.Background())
	if !rt.Ring().Has("p2") {
		t.Fatal("p2 not readmitted after passing probes")
	}
	if hc.Fills() != 1 {
		t.Fatalf("Fills = %d; want 1", hc.Fills())
	}
	p2 := byName(reps, "p2")
	if fills := p2.srv.Engine().Stats().CacheFills; fills == 0 {
		t.Fatal("p2 accepted no warm-fill entries")
	}

	// p2's first request back is served from the transferred cache, with
	// numbers bit-identical to what p1 solved.
	code, secondBody := post(t, front.URL, "/v1/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("optimize after rejoin: status %d: %s", code, secondBody)
	}
	var first, second service.OptimizeResponse
	if err := json.Unmarshal([]byte(firstBody), &first); err != nil {
		t.Fatalf("first response: %v", err)
	}
	if err := json.Unmarshal([]byte(secondBody), &second); err != nil {
		t.Fatalf("second response: %v", err)
	}
	if !second.Cached {
		t.Fatalf("rejoined replica solved cold (cached=false): %s", secondBody)
	}
	if second.T != first.T || second.P != first.P || second.Overhead != first.Overhead {
		t.Fatalf("warm-filled answer differs\nfirst:  %s\nsecond: %s", firstBody, secondBody)
	}
	if p2.srv.Engine().Stats().OptimizeCalls != 1 {
		// The one call is the routed request itself; a fill must never
		// masquerade as a solve.
		t.Fatalf("p2 optimize_calls = %d; want 1 (served from fill, not solved)",
			p2.srv.Engine().Stats().OptimizeCalls)
	}
}

// TestRouterShedsAtInFlightCap pins the router's own load-shedding
// contract: past MaxInFlight it answers 503 + Retry-After immediately
// instead of queueing.
func TestRouterShedsAtInFlightCap(t *testing.T) {
	rt, _ := newFleet(t, 1, nil, -1)
	rt.inflight = make(chan struct{}, 1)
	rt.inflight <- struct{}{} // occupy the only slot
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"model":{"platform":"hera"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated router answered %d; want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if rt.shed.Load() != 1 {
		t.Fatalf("shed counter = %d; want 1", rt.shed.Load())
	}
}

// TestRouterStatsExposesPerShardCaches checks the fleet stats view:
// per-peer forward counters plus each replica's own cache hit/miss
// numbers fetched live.
func TestRouterStatsExposesPerShardCaches(t *testing.T) {
	rt, _ := newFleet(t, 2, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":1}}`
	post(t, front.URL, "/v1/optimize", body)
	post(t, front.URL, "/v1/optimize", body) // second hit is cached

	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(st.Ring) != 2 || len(st.Peers) != 2 {
		t.Fatalf("stats ring/peers = %v / %d entries; want 2/2", st.Ring, len(st.Peers))
	}
	var forwards, optCalls, hits uint64
	for _, ps := range st.Peers {
		forwards += ps.Forwards
		if ps.Engine == nil {
			t.Fatalf("peer engine stats missing: %+v", ps)
		}
		optCalls += ps.Engine.OptimizeCalls
		hits += ps.Engine.OptimizeCache.Hits
	}
	if forwards < 2 {
		t.Fatalf("forwards = %d; want ≥ 2", forwards)
	}
	if optCalls != 2 {
		t.Fatalf("fleet-wide optimize_calls = %d; want 2", optCalls)
	}
	if hits == 0 {
		t.Fatal("repeated request produced no cache hit on its shard")
	}
}

// TestRouterStatsBytesStableAcrossCalls pins the mapiter fix in
// Router.Stats and Ring.Peers: with traffic quiesced, /v1/stats must
// serialize to the same bytes on every call — the ring membership slice
// and the per-peer merge may not leak map iteration order.
func TestRouterStatsBytesStableAcrossCalls(t *testing.T) {
	rt, _ := newFleet(t, 3, nil, -1)
	front := httptest.NewServer(rt)
	defer front.Close()

	body := `{"model":{"platform":"hera","scenario":1}}`
	post(t, front.URL, "/v1/optimize", body)

	fetch := func() []byte {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/stats")
		if err != nil {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read stats body: %v", err)
		}
		return b
	}
	first := fetch()
	for i := 0; i < 5; i++ {
		if got := fetch(); !bytes.Equal(got, first) {
			t.Fatalf("stats bytes drifted on call %d:\nfirst: %s\n  got: %s", i+2, first, got)
		}
	}
}
