package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

func TestProfileStudy(t *testing.T) {
	profiles := []speedup.Profile{
		speedup.Amdahl{Alpha: 0.1},
		speedup.Gustafson{Alpha: 0.1},
		speedup.PowerLaw{Gamma: 0.8},
	}
	res, err := ProfileStudyContext(context.Background(), platform.Hera(), costmodel.Scenario1, profiles, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("expected 3 cells, got %d", len(res.Cells))
	}
	byName := map[string]ProfileCell{}
	for _, c := range res.Cells {
		byName[c.Profile] = c
		// Simulated and predicted overheads agree at each simulable
		// solution. (A semi-analytic point driven outside its validity
		// region — Gustafson at the P bound — is legitimately marked
		// unsimulable with NaN.)
		for _, e := range []Eval{c.SemiAnalytic, c.Optimal} {
			if math.IsNaN(e.SimulatedH) {
				if !strings.Contains(e.Method, "unsimulable") {
					t.Errorf("%s: NaN simulated overhead without the unsimulable tag", c.Profile)
				}
				continue
			}
			if xmath.RelDiff(e.SimulatedH, e.PredictedH) > 0.05 {
				t.Errorf("%s: simulated %g vs predicted %g", c.Profile, e.SimulatedH, e.PredictedH)
			}
		}
		// The numerical optimum never loses to the semi-analytic point.
		if c.Optimal.PredictedH > c.SemiAnalytic.PredictedH*(1+1e-6) {
			t.Errorf("%s: numerical %g worse than semi-analytic %g",
				c.Profile, c.Optimal.PredictedH, c.SemiAnalytic.PredictedH)
		}
	}

	am := byName["amdahl(α=0.1)"]
	gu := byName["gustafson(α=0.1)"]
	// Weak scaling sustains far more processors and a far lower overhead
	// than strong scaling with the same sequential fraction.
	if gu.Optimal.P <= am.Optimal.P*10 {
		t.Errorf("Gustafson P*=%g should dwarf Amdahl P*=%g", gu.Optimal.P, am.Optimal.P)
	}
	if gu.Optimal.SimulatedH >= am.Optimal.SimulatedH {
		t.Errorf("Gustafson overhead %g should undercut Amdahl %g",
			gu.Optimal.SimulatedH, am.Optimal.SimulatedH)
	}
}

func TestProfileStudyDefaults(t *testing.T) {
	res, err := ProfileStudyContext(context.Background(), platform.Hera(), costmodel.Scenario3, nil, Quick())
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := DefaultProfiles(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(defaults) {
		t.Fatalf("default profile set not used: %d cells", len(res.Cells))
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Profile study", "amdahl", "gustafson", "powerlaw"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), "pstar_optimal") {
		t.Error("CSV missing series")
	}
}

type invalidProfile struct{}

func (invalidProfile) Speedup(p float64) float64  { return -1 }
func (invalidProfile) Overhead(p float64) float64 { return -1 }
func (invalidProfile) Name() string               { return "invalid" }

func TestProfileStudyRejectsBrokenProfile(t *testing.T) {
	_, err := ProfileStudyContext(context.Background(), platform.Hera(), costmodel.Scenario1,
		[]speedup.Profile{invalidProfile{}}, Quick())
	if err == nil {
		t.Error("broken profile accepted")
	}
}
