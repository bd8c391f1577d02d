package fleet

import (
	"encoding/json"
	"testing"

	"amdahlyd/internal/platform"
	"amdahlyd/internal/service"
)

// TestShardKeyAgreesWithReplicaKey checks that the router places every
// routed endpoint class by the same canonical key the replica caches
// under: the body's model (or topology) spec, built and keyed exactly as
// the replica builds it. A disagreement would send requests to a replica
// that does not own their cache entries — silently cold solves.
func TestShardKeyAgreesWithReplicaKey(t *testing.T) {
	alpha := 0.2
	model := service.ModelSpec{Platform: "atlas", Scenario: 4, Alpha: &alpha}
	pl := platform.Hera()
	topo := service.TopologySpec{
		Name: "pair",
		Comm: 1e-6,
		Groups: []platform.Group{
			platform.SingleGroup(pl).Groups[0],
			{Name: "accel", LambdaInd: 50 * pl.LambdaInd, FailStopFraction: pl.FailStopFraction,
				SilentFraction: pl.SilentFraction, Size: 128, Speed: 8,
				CheckpointCost: pl.CheckpointCost / 5, VerificationCost: pl.VerificationCost / 4},
		},
		Scenario: 2,
	}
	m, _, err := model.Build()
	if err != nil {
		t.Fatal(err)
	}
	modelKey, err := m.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	hm, _, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	topoKey, err := hm.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	frac := 0.05
	cases := []struct {
		path string
		body any
		want string
	}{
		{"/v1/evaluate", service.EvaluateRequest{Model: model, T: 5000, P: 100}, modelKey},
		{"/v1/optimize", service.OptimizeRequest{Model: model, Options: service.OptimizeOptions{IntegerP: true}}, modelKey},
		{"/v1/simulate", service.SimulateRequest{Model: model, Runs: 3, Seed: 7}, modelKey},
		{"/v1/multilevel/optimize", service.MultilevelOptimizeRequest{Model: model, InMemFraction: &frac}, modelKey},
		{"/v1/multilevel/simulate", service.MultilevelSimulateRequest{Model: model, K: 2, P: 64}, modelKey},
		{"/v1/hetero/optimize", service.HeteroOptimizeRequest{Topology: topo}, topoKey},
		{"/v1/hetero/simulate", service.HeteroSimulateRequest{Topology: topo, Runs: 2}, topoKey},
		{"/v1/sweep", service.SweepRequest{Model: model, Axis: "lambda", Values: []float64{1e-9, 2e-9}}, modelKey},
		{"/v1/sweep", service.SweepRequest{Model: model, Axis: "alpha", Values: []float64{0.1},
			Multilevel: &service.MultilevelSweepSpec{InMemFraction: &frac}}, modelKey},
		{"/v1/sweep", service.SweepRequest{Axis: "comm", Values: []float64{0, 1e-6},
			Hetero: &service.HeteroSweepSpec{Topology: topo}}, topoKey},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShardKey(tc.path, body)
		if err != nil {
			t.Errorf("%s %s: %v", tc.path, body, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s %s:\n shard key %q\n   replica %q", tc.path, body, got, tc.want)
		}
		for _, bad := range []string{`{`, `[]`, `{"model":5,"topology":5}`} {
			if _, err := ShardKey(tc.path, []byte(bad)); err == nil {
				t.Errorf("%s: malformed body %s accepted", tc.path, bad)
			}
		}
	}
}
