package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Peer warm-fill: when a fleet replica joins (or rejoins) the ring, it
// is cold — every request it now owns would pay a full solve that its
// neighbour already paid. The router closes that gap by pulling the
// neighbour's hottest result-cache entries (GET /v1/cache/hot) and
// pushing them into the joiner (POST /v1/cache/fill).
//
// This is sound because every cached value is a pure function of its
// canonical key (solves are deterministic, campaigns are seeded), so a
// transferred entry is bit-identical to what the joiner would have
// solved itself, and float64 fields survive the JSON hop exactly
// (encoding/json emits the shortest representation that parses back to
// the same bits). Compiled core.Frozen kernels are deliberately not
// transferred: they are microseconds to rebuild and carry unexported
// state.

// Cache-entry kinds, one per transferable result cache.
const (
	KindOptimize           = "opt"
	KindMultilevelOptimize = "mlopt"
	KindHeteroOptimize     = "hgopt"
	KindSimulate           = "sim"
	KindMultilevelSimulate = "mlsim"
	KindHeteroSimulate     = "hgsim"
)

// resultCache is the type-erased warm-fill view of one typed result LRU.
type resultCache interface {
	// appendHot appends up to limit-len(out) hot entries, tagged kind.
	appendHot(out []CacheEntry, kind string, limit int) []CacheEntry
	// fill decodes raw as the cache's value type and inserts it.
	fill(key string, raw json.RawMessage) bool
}

// kindCache is one row of the engine's result-cache table.
type kindCache struct {
	kind  string
	cache resultCache
}

// newResultCache allocates the typed result LRU behind slot and returns
// it as a table entry.
func newResultCache[V any](slot **lruCache[V], size int) resultCache {
	*slot = newLRU[V](size)
	return *slot
}

func (c *lruCache[V]) appendHot(out []CacheEntry, kind string, limit int) []CacheEntry {
	keys, vals := c.Hot(limit - len(out))
	for i, key := range keys {
		raw, err := json.Marshal(vals[i])
		if err != nil {
			continue // an unrepresentable value is skipped, not fatal
		}
		out = append(out, CacheEntry{Kind: kind, Key: key, Value: raw})
	}
	return out
}

func (c *lruCache[V]) fill(key string, raw json.RawMessage) bool {
	var v V
	if json.Unmarshal(raw, &v) != nil {
		return false
	}
	c.Add(key, v)
	return true
}

// CacheEntry is one transferable cache entry: the canonical key, the
// cache it lives in, and the typed value as raw JSON.
type CacheEntry struct {
	Kind  string          `json:"kind"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// defaultHotLimit bounds a /v1/cache/hot response when the request does
// not say; maxHotLimit bounds it regardless (a fill is a warm-up aid,
// not a full cache dump).
const (
	defaultHotLimit = 256
	maxHotLimit     = 4096
)

// ExportHot snapshots up to limit hot cache entries across the result
// caches in table order — optimizer results first, then campaign results
// with the remaining budget.
func (e *Engine) ExportHot(limit int) []CacheEntry {
	if limit <= 0 {
		limit = defaultHotLimit
	}
	if limit > maxHotLimit {
		limit = maxHotLimit
	}
	out := make([]CacheEntry, 0, limit)
	for _, rc := range e.results {
		out = rc.cache.appendHot(out, rc.kind, limit)
	}
	return out
}

// ImportHot inserts transferred entries into the matching result caches,
// returning how many were accepted. Entries with an unknown kind, a key
// that does not carry a service namespace, or a value that does not
// decode as the kind's result type are rejected individually — one bad
// entry must not abort a fill. Fills never count as solves: optimize and
// simulate call counters are untouched, only the cache_fills stat moves.
func (e *Engine) ImportHot(entries []CacheEntry) (int, error) {
	accepted := 0
	for _, en := range entries {
		// Every legitimate key is "<versioned model key>#<namespace>#…":
		// keys are opaque to the fleet, but a missing namespace marker means
		// the entry cannot have come from ExportHot.
		if en.Key == "" || !strings.Contains(en.Key, "#") {
			continue
		}
		for _, rc := range e.results {
			if rc.kind == en.Kind && rc.cache.fill(en.Key, en.Value) {
				accepted++
			}
		}
	}
	e.cacheFills.Add(uint64(accepted))
	return accepted, nil
}

// handleCacheHot serves the warm-fill export: GET /v1/cache/hot?limit=N.
func (s *Server) handleCacheHot(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, s.engine.ExportHot(limit))
}

// FillResponse reports how much of a warm-fill was accepted.
type FillResponse struct {
	Accepted int `json:"accepted"`
	Offered  int `json:"offered"`
}

// handleCacheFill serves the warm-fill import: POST /v1/cache/fill with
// the /v1/cache/hot entry array as body.
func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	// Fills can legitimately exceed the normal request bound (hundreds of
	// result entries); still bound the body — maxHotLimit entries of
	// modest results fit comfortably in 8 MiB.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	var entries []CacheEntry
	if err := dec.Decode(&entries); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad fill body: %w", err))
		return
	}
	if len(entries) > maxHotLimit {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf(
			"fill of %d entries exceeds the %d-entry limit", len(entries), maxHotLimit))
		return
	}
	n, err := s.engine.ImportHot(entries)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, FillResponse{Accepted: n, Offered: len(entries)})
}
