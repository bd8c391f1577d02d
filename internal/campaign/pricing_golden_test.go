package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPricingReportsGolden pins report.txt + report.csv of small
// campaigns that cover every pricing branch of the executor:
// exponential single-level, machine-level replay under a Weibull law
// (including an allocation past the machine-population cap), two-level
// along the frac axis (including cells at the processor bound) and
// heterogeneous along the comm axis. Pricing lives in the protocols'
// own packages; the executor only calls it, so drift in either shows up
// here as a digest change.
func TestPricingReportsGolden(t *testing.T) {
	alpha0 := 0.0
	for _, tc := range []struct {
		name string
		man  Manifest
		want string
	}{
		{"single", testManifest(), "69d62300ef43fb57e8d12788cf943bb4fe2400339479fbc2027250fc2faf083c"},
		{"weibull", Manifest{
			Name:          "wb",
			Seed:          13,
			Runs:          2,
			Patterns:      4,
			Platforms:     []string{"Hera"},
			Scenarios:     []int{1},
			Distributions: []DistSpec{{Name: "weibull"}},
			Axis:          AxisShape,
			Values:        []float64{0.7, 1.5},
		}, "cb581bbb92f72a19b51c5cbc83e4d0cbedd2f42227d80c293b60004e7e7643c7"},
		{"weibull-alpha0", Manifest{
			Name:          "wb0",
			Seed:          13,
			Runs:          2,
			Patterns:      4,
			Platforms:     []string{"Hera"},
			Scenarios:     []int{6},
			Alpha:         &alpha0,
			Distributions: []DistSpec{{Name: "weibull"}},
			Axis:          AxisShape,
			Values:        []float64{0.7},
		}, "c11fb46f5bcf0019132fb9845b56ce3d02455c3385e73e61d12c96275230f6fe"},
		{"multilevel", Manifest{
			Name:      "ml",
			Seed:      11,
			Runs:      3,
			Patterns:  5,
			Platforms: []string{"Hera"},
			Scenarios: []int{1, 6},
			Protocols: []ProtocolSpec{{Name: ProtocolMultilevel}},
			Axis:      AxisFraction,
			Values:    []float64{1.0 / 15, 0.5},
		}, "f1ed32e8693c331752dd4e28030687e966c31222ef0f66a9948786ec66cea08e"},
		{"hetero", heteroTestManifest(), "2e5fc6b166d49f8758dcaae8e5aef84a6ea2256e426c36224391b7f208bafc84"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mustRun(t, tc.man, testOptions(dir))
			txt, csv := reportBytes(t, dir)
			h := sha256.New()
			h.Write(txt)
			h.Write(csv)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("report digest %s, want %s", got, tc.want)
			}
		})
	}
}
