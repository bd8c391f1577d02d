package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func allMetrics() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), reportOnly...), perLayer...)
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range allMetrics() {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Target == "" {
			t.Errorf("per-layer metric %s names no target", m.Name)
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json at the repository root must describe exactly what this
// command measures.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, m, endToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, m, want)
		}
	}
	whys := map[string]string{"grid-batch": gridWhy}
	for _, w := range workloads {
		whys[w.name] = w.why
	}
	if len(bf.Workloads) != len(whys) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(whys))
	}
	for _, w := range bf.Workloads {
		why, ok := whys[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
			continue
		}
		if !strings.HasPrefix(w.Why, why) {
			t.Errorf("workload %s: BENCHMARK.json why %q does not start with the command's %q", w.Name, w.Why, why)
		}
	}
}

// README.md records each per-layer metric's target.
func TestReadmeListsTargets(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, m := range perLayer {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not list %s", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), reportOnly...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not list %s", m.Name)
		}
	}
}
