package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// These goldens pin the two wire contracts a fleet depends on across
// replicas of different builds: the /v1/stats JSON shape (the router
// merges it per peer) and the exact cache-key strings (warm-fill moves
// entries between replicas by key). A refactor of the engine must leave
// both byte-for-byte unchanged.

// jsonKeyPaths returns the sorted dotted key paths of a JSON object,
// descending into nested objects.
func jsonKeyPaths(t *testing.T, raw []byte) []string {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, o map[string]any)
	walk = func(prefix string, o map[string]any) {
		for k, v := range o {
			paths = append(paths, prefix+k)
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", obj)
	sort.Strings(paths)
	return paths
}

func TestStatsJSONKeySetGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cache_fills", "cancelled", "deduplicated", "evaluations",
		"hetero_optimize_calls", "hetero_simulate_calls", "hetero_sweep_calls",
		"in_flight", "max_concurrent", "max_queued",
		"multilevel_optimize_calls", "multilevel_simulate_calls", "multilevel_sweep_calls",
		"optimize_calls", "queued", "saturated", "simulate_calls", "sweep_calls",
	}
	for _, c := range []string{
		"frozen_cache", "hetero_optimize_cache", "hetero_simulate_cache",
		"multilevel_optimize_cache", "multilevel_simulate_cache",
		"optimize_cache", "simulate_cache",
	} {
		want = append(want, c)
		for _, f := range []string{"capacity", "entries", "evictions", "hits", "misses"} {
			want = append(want, c+"."+f)
		}
	}
	sort.Strings(want)
	if got := jsonKeyPaths(t, raw); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/v1/stats key set changed\n got: %q\nwant: %q", got, want)
	}
}

// Canonical model keys of Hera/scenario 3 and of testTopologySpec(0),
// spelled out so the goldens below pin every byte.
const (
	goldenHeraKey = "m1|0x1.2256fc6cf6c4p-26|0x1.c01a36e2eb1c4p-03|0x1.8ff972474538fp-01|0x1.2cp+08|0x0p+00|0x0p+00|0x1.2cp+08|0x0p+00|0x0p+00|0x1.ecccccccccccdp+03|0x0p+00|0x1.c2p+11|amdahl:0x1.999999999999ap-04"
	goldenTopoKey = "hg1|0x0p+00" +
		"[0x1p+09@m1|0x1.2256fc6cf6c4p-26|0x1.c01a36e2eb1c4p-03|0x1.8ff972474538fp-01|0x0p+00|0x0p+00|0x1.2cp-01|0x0p+00|0x0p+00|0x1.2cp-01|0x1.ecccccccccccdp+03|0x0p+00|0x1.c2p+11|amdahl:0x1.999999999999ap-04]" +
		"[0x1p+07@m1|0x1.c5a7ea6a41924p-21|0x1.c01a36e2eb1c4p-03|0x1.8ff972474538fp-01|0x0p+00|0x0p+00|0x1.ep-02|0x0p+00|0x0p+00|0x1.ep-02|0x1.ecccccccccccdp+01|0x0p+00|0x1.c2p+11|amdahlcomm:0x1.999999999999ap-04,0x1p+03,0x0p+00]"
	goldenOptsKey = "0x0p+00,0x0p+00,0x0p+00,0x0p+00,0,0,0x0p+00,false"
)

// goldenCacheKeys are the "kind key" pairs of all six result kinds plus
// the warm-sweep cells of the three protocols.
var goldenCacheKeys = []string{
	"opt " + goldenHeraKey + "#opt#" + goldenOptsKey,
	"opt " + goldenHeraKey + "#swopt#" + goldenOptsKey,
	"sim " + goldenHeraKey + "#sim#0x1.86p+12,0x1.b6p+07,2,2,1,false,exp-fast",
	"mlopt " + goldenHeraKey + "#ml1|opt#0x1.1111111111111p-04#0x0p+00,0x0p+00,0,0x0p+00,false",
	"mlopt " + goldenHeraKey + "#ml1|swopt#0x1.1111111111111p-04#0x0p+00,0x0p+00,0,0x0p+00,false",
	"mlsim " + goldenHeraKey + "#ml1|sim#0x1.1111111111111p-04,0x1.388p+12,3,0x1.b6p+07,2,2,1",
	"hgopt " + goldenTopoKey + "#opt#" + goldenOptsKey + ",maxg=0",
	"hgopt " + goldenTopoKey + "#swopt#" + goldenOptsKey + ",maxg=0",
	"hgsim " + goldenTopoKey + "#sim#0:0x1.86p+12:0x1.b6p+07:0x1p+00;2,2,1",
}

func TestCacheKeyStringsGolden(t *testing.T) {
	e := NewEngine(Options{})
	ctx := context.Background()
	m, err := experiments.BuildModel(platform.Hera(), costmodel.Scenario3, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	hm, _, err := testTopologySpec(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = e.Optimize(ctx, m, optimize.PatternOptions{})
	must(err)
	_, _, err = e.Simulate(ctx, m, 6240, 219, sim.RunConfig{Runs: 2, Patterns: 2, Seed: 1})
	must(err)
	_, _, err = e.MultilevelOptimize(ctx, m, testFrac, multilevel.PatternOptions{})
	must(err)
	_, _, err = e.MultilevelSimulate(ctx, m, testFrac, multilevel.Pattern{T: 5000, K: 3}, 219, 2, 2, 1)
	must(err)
	_, _, err = e.HeteroOptimize(ctx, hm, hetero.PatternOptions{})
	must(err)
	_, _, err = e.HeteroSimulate(ctx, hm, []hetero.GroupPlan{{Group: 0, T: 6240, P: 219, Fraction: 1}}, 2, 2, 1)
	must(err)
	must(e.SweepStream(ctx, []core.Model{m}, optimize.PatternOptions{}, false,
		func(int, SweepCell) error { return nil }))
	must(e.MultilevelSweepStream(ctx, []core.Model{m}, testFrac, multilevel.PatternOptions{}, false,
		func(int, MultilevelSweepCell) error { return nil }))
	must(e.HeteroSweepStream(ctx, []core.HeteroModel{hm}, hetero.PatternOptions{}, false,
		func(int, HeteroSweepCell) error { return nil }))

	var got []string
	for _, en := range e.ExportHot(maxHotLimit) {
		got = append(got, en.Kind+" "+en.Key)
	}
	sort.Strings(got)
	want := append([]string(nil), goldenCacheKeys...)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cache-key strings changed\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
