package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"amdahlyd/internal/atomicio"
	"amdahlyd/internal/hetero"
)

// artifactVersion versions the on-disk cell schema; a resumed campaign
// re-runs (never misreads) cells written by an incompatible executor.
const artifactVersion = 1

// Artifact is the durable result of one cell: everything the aggregate
// report needs, plus the identity material (cell ID, seed, budget) a
// resume verifies before trusting the file. Simulated quantities are
// pointers because encoding/json cannot carry NaN: nil means NaN, which
// only occurs on unsimulable cells.
type Artifact struct {
	Version  int    `json:"version"`
	CellID   string `json:"cell_id"`
	Label    string `json:"label"`
	Seed     uint64 `json:"seed"`
	Runs     int    `json:"runs"`
	Patterns int    `json:"patterns"`
	Protocol string `json:"protocol"`

	// Solve phase: the (T[, K], P) optimum and its model prediction.
	// Hetero cells leave T/P zero and record the per-group plan in
	// Groups instead (additive, omitempty: older artifacts still verify).
	T          float64 `json:"t"`
	K          int     `json:"k,omitempty"`
	P          float64 `json:"p"`
	PredictedH float64 `json:"predicted_h"`
	AtPBound   bool    `json:"at_p_bound,omitempty"`
	Warm       bool    `json:"warm,omitempty"`

	// Hetero solve phase: number of active groups and their plans.
	G      int                   `json:"g,omitempty"`
	Groups []HeteroGroupArtifact `json:"groups,omitempty"`

	// Monte-Carlo phase. SimProcs is the integral allocation the
	// machine-level simulator priced (0 for the pattern-level path).
	SimProcs    int      `json:"sim_procs,omitempty"`
	Unsimulable bool     `json:"unsimulable,omitempty"`
	SimH        *float64 `json:"sim_h"`
	SimCI       *float64 `json:"sim_ci"`

	// Checksum is the hex SHA-256 of the artifact's canonical JSON with
	// this field empty; a truncated or hand-edited file never verifies.
	Checksum string `json:"checksum"`
}

// HeteroGroupArtifact is one group's share of a hetero cell's joint
// optimum: which group, its work fraction, and its own (T, P) pattern.
type HeteroGroupArtifact struct {
	Group    int     `json:"group"`
	Fraction float64 `json:"fraction"`
	T        float64 `json:"t"`
	P        float64 `json:"p"`
	Overhead float64 `json:"overhead"`
	AtPBound bool    `json:"at_p_bound,omitempty"`
}

// plans is the artifact's hetero plan in the optimizer's shape, for
// warming a chain from a banked cell and for pricing a solved one.
func (a *Artifact) plans() []hetero.GroupPlan {
	plans := make([]hetero.GroupPlan, len(a.Groups))
	for i, g := range a.Groups {
		plans[i] = hetero.GroupPlan{Group: g.Group, Fraction: g.Fraction,
			T: g.T, P: g.P, GroupOverhead: g.Overhead, AtPBound: g.AtPBound}
	}
	return plans
}

// floatPtr boxes v for the JSON artifact, mapping NaN to nil.
func floatPtr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// floatVal unboxes a JSON field, mapping nil back to NaN.
func floatVal(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// SimOverhead returns the simulated overhead and CI95 half-width (NaN,
// NaN for unsimulable cells).
func (a *Artifact) SimOverhead() (mean, ci float64) {
	return floatVal(a.SimH), floatVal(a.SimCI)
}

// checksum computes the canonical digest: the indented JSON with the
// Checksum field cleared.
func (a Artifact) checksum() (string, error) {
	a.Checksum = ""
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// artifactPath is the cell's file under the campaign output directory.
func artifactPath(outDir, cellID string) string {
	return filepath.Join(outDir, "cells", cellID+".json")
}

// writeArtifact seals and atomically writes the artifact: the file is
// either absent, the previous complete version, or the new complete
// version — never a torn write a resume could trust.
func writeArtifact(outDir string, a Artifact) error {
	sum, err := a.checksum()
	if err != nil {
		return err
	}
	a.Checksum = sum
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return atomicio.WriteFileBytes(artifactPath(outDir, a.CellID), append(buf, '\n'))
}

// loadArtifact reads and verifies a cell artifact against the planned
// cell. Any mismatch — missing file, bad JSON, failed checksum, stale
// version, or an identity/budget drift — returns an error; the executor
// treats every such cell as not yet run.
func loadArtifact(outDir string, c *Cell, runs, patterns int) (*Artifact, error) {
	buf, err := os.ReadFile(artifactPath(outDir, c.ID))
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("campaign: artifact %s: %w", c.ID, err)
	}
	if a.Version != artifactVersion {
		return nil, fmt.Errorf("campaign: artifact %s: version %d, want %d", c.ID, a.Version, artifactVersion)
	}
	want, err := a.checksum()
	if err != nil {
		return nil, err
	}
	if a.Checksum != want {
		return nil, fmt.Errorf("campaign: artifact %s: checksum mismatch", c.ID)
	}
	if a.CellID != c.ID || a.Seed != c.Seed || a.Runs != runs || a.Patterns != patterns || a.Protocol != c.Protocol {
		return nil, fmt.Errorf("campaign: artifact %s: identity drift (plan changed under the output directory)", c.ID)
	}
	return &a, nil
}
