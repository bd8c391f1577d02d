package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
)

// TestSeedHashMatchesSprintfLabels pins the streaming seedHash against
// the historical cellSeed-over-fmt.Sprintf path: the sweep hot loop
// derives per-cell seeds without materializing the label, and the digest
// must be bit-identical or every figure's Monte-Carlo streams change.
func TestSeedHashMatchesSprintfLabels(t *testing.T) {
	const master = 12345
	for _, sc := range costmodel.AllScenarios {
		for _, x := range []float64{0, 1e-12, 0.1, 3600, 1.69e-8, 1472, 1e300} {
			for _, suffix := range []string{"/first-order", "/numerical"} {
				label := fmt.Sprintf("%s/%v/%s=%g%s", "Fig. 5", sc, "lambda_ind", x, suffix)
				want := cellSeed(master, label)
				got := newSeedHash().str("Fig. 5").str("/").str(sc.String()).
					str("/").str("lambda_ind").str("=").float(x).str(suffix).seed(master)
				if got != want {
					t.Fatalf("seedHash(%q) = %d, want %d", label, got, want)
				}
			}
		}
	}
}

// TestSweepWarmColdRenderByteIdentical is the figure-level equivalence
// pin: a warm-start sweep and the historical cold per-cell sweep must
// render byte-identical tables for the same seed (the solver agreement
// is within the refinement tolerance, far below the table precision).
func TestSweepWarmColdRenderByteIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 7
	run := func(cold bool) (string, *SweepResult) {
		c := cfg
		c.ColdSolve = cold
		res, err := Fig4Context(context.Background(), platform.Hera(), nil, c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res
	}
	warmOut, warmRes := run(false)
	coldOut, coldRes := run(true)
	if warmOut != coldOut {
		t.Errorf("warm and cold Fig. 4 renders differ:\n--- warm ---\n%s\n--- cold ---\n%s", warmOut, coldOut)
	}
	for i := range coldRes.Points {
		w, c := warmRes.Points[i].Optimal, coldRes.Points[i].Optimal
		if (w == nil) != (c == nil) {
			t.Fatalf("point %d: optimal presence differs", i)
		}
		if relDiff(w.P, c.P) > 1e-4 || relDiff(w.T, c.T) > 1e-4 {
			t.Errorf("point %d: warm optimum (%g, %g) vs cold (%g, %g)", i, w.T, w.P, c.T, c.P)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
