package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"amdahlyd/internal/speedup"
)

// HeteroGroup pairs one group's compiled-down specification — a complete
// single-group Model (group rates, group-calibrated resilience costs,
// group base profile) — with the group's processor capacity. The base
// profile is the one the group runs *alone* (no inter-group exchange);
// ActiveModel derives the comm-charged variant for multi-group runs.
type HeteroGroup struct {
	// Model is the group's single-group model.
	Model Model
	// Size is the group's processor capacity: allocations are P_g ≤ Size.
	Size float64
}

// HeteroModel is a heterogeneous platform compiled to the core layer: one
// Model per group plus the inter-group communication coefficient. Every
// hot loop runs on per-group Frozen kernels obtained from ActiveModel +
// Freeze; the single-group case (one group, Comm = 0) is byte-for-byte
// today's Model — ActiveModel returns it unchanged.
type HeteroModel struct {
	// Groups lists the per-group models in topology order.
	Groups []HeteroGroup
	// Comm is the inter-group communication coefficient κ: a group active
	// alongside (G−1) others runs with its profile's comm term increased
	// by κ·(G−1) per allocated processor.
	Comm float64
}

// Validate checks every group model plus the hetero-specific fields.
func (hm HeteroModel) Validate() error {
	if len(hm.Groups) == 0 {
		return errors.New("core: heterogeneous model with no groups")
	}
	if !(hm.Comm >= 0) || math.IsInf(hm.Comm, 0) {
		return fmt.Errorf("core: inter-group comm κ = %g must be non-negative and finite", hm.Comm)
	}
	for i, g := range hm.Groups {
		if err := g.Model.Validate(); err != nil {
			return fmt.Errorf("core: group %d: %w", i, err)
		}
		if !(g.Size >= 1) || math.IsInf(g.Size, 0) {
			return fmt.Errorf("core: group %d: size = %g must be >= 1 and finite", i, g.Size)
		}
	}
	return nil
}

// ActiveModel returns group i's model adjusted for a run in which active
// groups participate: the profile's communication coefficient grows by
// Comm·(active−1) — each of the group's processors exchanges with every
// other active group at linear cost. With active = 1 (or Comm = 0 on a
// comm-free base profile) the group's model is returned *unchanged*, so
// the degenerate case keeps today's profile values, cache keys and frozen
// kernels bit-identically.
//
// Only the Amdahl family (Amdahl, PerfectlyParallel, AmdahlComm) knows
// how to absorb a communication term; any other profile is accepted only
// when no comm charge applies.
func (hm HeteroModel) ActiveModel(i, active int) (Model, error) {
	if i < 0 || i >= len(hm.Groups) {
		return Model{}, fmt.Errorf("core: group index %d outside [0, %d)", i, len(hm.Groups))
	}
	if active < 1 || active > len(hm.Groups) {
		return Model{}, fmt.Errorf("core: active group count %d outside [1, %d]", active, len(hm.Groups))
	}
	m := hm.Groups[i].Model
	extra := hm.Comm * float64(active-1)
	if extra == 0 {
		return m, nil
	}
	switch prof := m.Profile.(type) {
	case speedup.Amdahl:
		m.Profile = speedup.AmdahlComm{Alpha: prof.Alpha, Speed: 1, Comm: extra}
	case speedup.PerfectlyParallel:
		m.Profile = speedup.AmdahlComm{Alpha: 0, Speed: 1, Comm: extra}
	case speedup.AmdahlComm:
		prof.Comm += extra
		m.Profile = prof
	default:
		return Model{}, fmt.Errorf(
			"core: profile %s cannot absorb an inter-group comm term (need the Amdahl family)",
			m.Profile.Name())
	}
	return m, nil
}

// CacheKey returns the canonical identity of the heterogeneous model
// under the versioned "hg1|" namespace: the comm coefficient plus each
// group's full single-group model key and size, in group order. The same
// canonicalization rules as Model.CacheKey apply (exact-hex floats, NaN
// rejected); group order is meaningful — permuted groups are observably
// different models (group indices appear in results).
func (hm HeteroModel) CacheKey() (string, error) {
	if len(hm.Groups) == 0 {
		return "", errors.New("core: cannot key a heterogeneous model with no groups")
	}
	if math.IsNaN(hm.Comm) {
		return "", errors.New("core: cannot key a heterogeneous model with NaN comm")
	}
	var b strings.Builder
	b.Grow(64 + 224*len(hm.Groups))
	b.WriteString("hg1|") // key-format version: bump when the layout changes
	b.WriteString(FormatFloatKey(hm.Comm))
	for _, g := range hm.Groups {
		if math.IsNaN(g.Size) {
			return "", errors.New("core: cannot key a heterogeneous group with NaN size")
		}
		mk, err := g.Model.CacheKey()
		if err != nil {
			return "", err
		}
		b.WriteString("[")
		b.WriteString(FormatFloatKey(g.Size))
		b.WriteString("@")
		b.WriteString(mk)
		b.WriteString("]")
	}
	return b.String(), nil
}
