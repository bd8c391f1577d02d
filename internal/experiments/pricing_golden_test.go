package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
)

// These goldens pin the rendered output of the three study drivers that
// price plans on a protocol's own simulator: machine-level replay under a
// non-memoryless law, two-level campaigns and heterogeneous plans. Each
// pricing step lives in the package that owns its protocol; the drivers
// only call it, so any drift in that shared step changes a digest here.

// goldenConfig is the small fixed budget every pinned study runs at.
func goldenConfig() Config {
	return Config{Runs: 10, Patterns: 20, Seed: 1}
}

type renderer interface {
	Render(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// renderDigest is the hex SHA-256 of Render followed by WriteCSV.
func renderDigest(t *testing.T, r renderer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestStudyPricingGolden(t *testing.T) {
	ctx := context.Background()
	cfg := goldenConfig()
	for _, tc := range []struct {
		name string
		run  func() (renderer, error)
		want string
	}{
		{"robustness-weibull", func() (renderer, error) {
			return RobustnessStudyContext(ctx, platform.Hera(), "weibull", []float64{0.7, 1},
				[]costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario6}, cfg)
		}, "56ad8f9f6dfee68fc61dbae4abe7c5a54e0b623dae2687778996845113573d01"},
		// α = 0 leaves the allocation unbounded: the exponential optimum
		// sits past the machine-population cap and the cell is unsimulable.
		{"robustness-weibull-alpha0", func() (renderer, error) {
			return RobustnessStudyContext(ctx, platform.Hera(), "weibull", []float64{0.7},
				[]costmodel.Scenario{costmodel.Scenario6}, cfg.WithAlpha(0))
		}, "4ee717647d08ecab4385237d53a3f664adbb043a99155e3fe080b07f0c35f807"},
		{"multilevel", func() (renderer, error) {
			return MultilevelStudyContext(ctx, platform.Hera(), []float64{1.0 / 15, 1},
				[]costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario6}, cfg)
		}, "26c6501a936a33ddff705b2f0970a0b0bbce86945b591ddfbfcf10ac55d67e12"},
		{"hetero", func() (renderer, error) {
			return HeterogeneousStudyContext(ctx, platform.Hera(), []float64{0, 1e-5}, []float64{0.25},
				[]costmodel.Scenario{costmodel.Scenario1}, cfg)
		}, "7df43e234c6da2b4ec1b4be47f8adf0e892114ba28cdc5d276a51246f27748ad"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderDigest(t, res); got != tc.want {
				t.Errorf("render+CSV digest %s, want %s", got, tc.want)
			}
		})
	}
}
