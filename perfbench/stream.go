package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/service"
)

// kind is an endpoint of the planning service.
type kind int

const (
	kOptimize kind = iota
	kEvaluate
	kMLOptimize
	kHeteroOptimize
	kSimulate
	kSweep
	numKinds
)

var kindPath = [numKinds]string{
	"/v1/optimize", "/v1/evaluate", "/v1/multilevel/optimize",
	"/v1/hetero/optimize", "/v1/simulate", "/v1/sweep",
}

var kindName = [numKinds]string{
	"optimize", "evaluate", "ml_optimize", "hetero_optimize", "simulate", "sweep",
}

// blockLen is the length of one kind schedule block: every block of the
// stream holds exactly shares[k] requests of kind k, in a seeded order,
// so the endpoint mix is the same for every seed.
const blockLen = 20

// workload is one serving traffic mix. Items of kind k are drawn from a
// universe of universe[k] distinct requests by a Zipf law of exponent
// zipf over a seeded ranking.
type workload struct {
	name     string
	why      string
	shares   [numKinds]int
	universe [numKinds]int
	zipf     float64
	// prefill is the number of hottest ranks per kind requested during
	// set-up (allItems on the warm workloads).
	prefill  int
	replicas int // 0: one replica; n: n replicas behind fleet.Router
	// sweepMin..sweepMax is the axis length of sweep requests; coldSweeps
	// makes every other sweep item a cold one.
	sweepMin, sweepMax int
	coldSweeps         bool
	simRuns, simPats   int
	// limit is the fixed latency limit behind slo_met_ratio, set once at
	// about four times the p99 measured when the benchmark was defined.
	limit time.Duration
}

var workloads = []*workload{
	{
		name:     "serve-warm",
		why:      "1 replica, Zipf stream over a prefilled working set well below ResultCacheSize: the warm path (decode, build, key, LRU, encode), little solver work. 2 closed-loop clients, limit 2.5 ms",
		shares:   [numKinds]int{6, 5, 3, 3, 3, 0},
		universe: [numKinds]int{256, 256, 128, 96, 128, 0},
		zipf:     0.8,
		prefill:  allItems,
		simRuns:  20, simPats: 40,
		limit: 2500 * time.Microsecond,
	},
	{
		name:     "serve-churn",
		why:      "1 replica, key space 4-16x the caches so a quarter to a third of lookups miss: solvers, scheduler, LRU evictions, cold and warm sweeps. Bypass case for warm-path changes. Limit 45 ms",
		shares:   [numKinds]int{6, 4, 3, 2, 3, 2},
		universe: [numKinds]int{4096, 16384, 4096, 4096, 4096, 512},
		// 1.05 is chosen for steadiness, not from traffic: it keeps the
		// optimize hit ratio near 0.64 and the median request a cache hit
		// (at 0.9, hit ratio 0.49, the median sat between the hit and miss
		// modes and moved 20% between runs). latency_p50_ms is then blind
		// to the miss path, which solve_ms measures instead.
		zipf:     1.05,
		prefill:  128,
		sweepMin: 8, sweepMax: 16, coldSweeps: true,
		simRuns: 50, simPats: 60,
		limit: 45 * time.Millisecond,
	},
	{
		name:     "fleet-warm",
		why:      "3 replicas behind fleet.Router with default hedging, serve-warm mix plus 10% short sweeps: shard key, ring, dispatch and NDJSON relay. 2 closed-loop clients, limit 6.5 ms",
		shares:   [numKinds]int{5, 5, 3, 2, 3, 2},
		universe: [numKinds]int{256, 256, 128, 96, 128, 64},
		zipf:     0.8,
		prefill:  allItems,
		replicas: 3,
		sweepMin: 4, sweepMax: 8,
		simRuns: 20, simPats: 40,
		limit: 6500 * time.Microsecond,
	},
}

// allItems as a prefill count prefills every item of every universe.
const allItems = 1 << 30

// warm reports whether set-up prefills every item, so that the timed
// phase is all cache hits and the engine solves only during set-up.
func (w *workload) warm() bool { return w.prefill >= allItems }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer, the benchmark's hash for seeded
// choices (the program under test never sees the seed, only the
// requests derived from it).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// stream is a workload's seeded request sequence: request i is a pure
// function of (workload, seed, i).
type stream struct {
	w      *workload
	seed   uint64
	slots  []kind // the unshuffled block schedule
	cdf    [numKinds][]float64
	bodies [numKinds][][]byte
}

func newStream(w *workload, seed uint64) (*stream, error) {
	s := &stream{w: w, seed: seed}
	for k := kind(0); k < numKinds; k++ {
		for j := 0; j < w.shares[k]; j++ {
			s.slots = append(s.slots, k)
		}
		u := w.universe[k]
		if (w.shares[k] == 0) != (u == 0) {
			return nil, fmt.Errorf("workload %s: kind %s has share %d but universe %d", w.name, kindName[k], w.shares[k], u)
		}
		if u == 0 {
			continue
		}
		cdf := make([]float64, u)
		total := 0.0
		for r := 0; r < u; r++ {
			total += math.Pow(float64(r+1), -w.zipf)
			cdf[r] = total
		}
		for r := range cdf {
			cdf[r] /= total
		}
		s.cdf[k] = cdf
		space := paramSpace(w, k)
		if u > space {
			return nil, fmt.Errorf("workload %s: universe %d of %s exceeds its parameter space %d", w.name, u, kindName[k], space)
		}
		off := hash(seed, uint64(k)) % uint64(u)
		s.bodies[k] = make([][]byte, u)
		for r := 0; r < u; r++ {
			// The universe is the same set of u requests for every seed:
			// items j < u at parameter index j·paramStride mod space. The
			// seed only permutes which item has which rank, so it changes
			// which requests are hot but not which exist, and set-up
			// solves the same requests whatever the seed. paramStride is
			// coprime to u and to space, so both maps are bijections.
			j := (uint64(r)*paramStride + off) % uint64(u)
			p := int(j * paramStride % uint64(space))
			body, err := s.buildBody(k, p)
			if err != nil {
				return nil, err
			}
			s.bodies[k][r] = body
		}
	}
	if len(s.slots) != blockLen {
		return nil, fmt.Errorf("workload %s: shares sum to %d, want %d", w.name, len(s.slots), blockLen)
	}
	return s, nil
}

// paramStride is prime and larger than every parameter space and
// universe, hence coprime to each of their sizes.
const paramStride = 1000003

// at returns the kind and item rank of request i.
func (s *stream) at(i uint64) (kind, int) {
	var block [blockLen]kind
	copy(block[:], s.slots)
	b := i / blockLen
	for j := blockLen - 1; j > 0; j-- {
		r := int(hash(s.seed, 1, b, uint64(j)) % uint64(j+1))
		block[j], block[r] = block[r], block[j]
	}
	k := block[i%blockLen]
	u := unit(hash(s.seed, 2, i))
	r := sort.SearchFloat64s(s.cdf[k], u)
	if r >= len(s.cdf[k]) {
		r = len(s.cdf[k]) - 1
	}
	return k, r
}

// Parameter grids. Every combination has been checked to solve and
// simulate without error.
var (
	platformNames = []string{"hera", "atlas", "coastal", "coastal-ssd"}
	downtimes     = []float64{3600, 1800, 7200, 900}
	mlFractions   = []float64{1.0 / 60, 1.0 / 15, 0.2, 0.5}
	heteroComms   = []float64{0, 1e-6, 3e-6, 1e-5}
	heteroSplits  = []float64{0.0625, 0.25, 1}
	procFactors   = []float64{1, 0.5, 0.25, 0.125}
)

const (
	nAlpha     = 48
	modelSpace = 4 * 6 * nAlpha * 4 // platform × scenario × alpha × downtime
)

func alphaAt(a int) float64 { return 0.02 + 0.005*float64(a) }

// modelSpec decodes a model parameter index.
func modelSpec(p int) service.ModelSpec {
	p %= modelSpace
	alpha := alphaAt((p / 24) % nAlpha)
	dt := downtimes[(p/(24*nAlpha))%len(downtimes)]
	return service.ModelSpec{
		Platform: platformNames[p%4],
		Scenario: 1 + (p/4)%6,
		Alpha:    &alpha,
		Downtime: &dt,
	}
}

func sweepLens(w *workload) int { return w.sweepMax - w.sweepMin + 1 }

func paramSpace(w *workload, k kind) int {
	switch k {
	case kEvaluate:
		return modelSpace * len(procFactors)
	case kMLOptimize:
		return modelSpace * len(mlFractions)
	case kHeteroOptimize:
		return 4 * 6 * nAlpha * len(heteroComms) * len(heteroSplits)
	case kSimulate:
		return modelSpace * 3 * 4
	case kSweep:
		n := modelSpace * 3 * sweepLens(w)
		if w.coldSweeps {
			n *= 2
		}
		return n
	}
	return modelSpace
}

func processors(name string) float64 {
	pl, err := platform.Lookup(name)
	if err != nil {
		panic(err)
	}
	return pl.Processors
}

// heteroSpec decodes a hetero parameter index into a two-group topology
// (the heterogeneous study's CPU + accelerator shape).
func heteroSpec(p int) service.TopologySpec {
	pl, err := platform.Lookup(platformNames[p%4])
	if err != nil {
		panic(err)
	}
	alpha := alphaAt((p / 24) % nAlpha)
	rest := p / (24 * nAlpha)
	tp := experiments.HeteroStudyTopology(pl, heteroComms[rest%len(heteroComms)],
		heteroSplits[(rest/len(heteroComms))%len(heteroSplits)])
	return service.TopologySpec{
		Name: tp.Name, Comm: tp.Comm, Groups: tp.Groups,
		Scenario: 1 + (p/4)%6, Alpha: &alpha,
	}
}

// sweepAxes are the sweep endpoint's single-level axes.
var sweepAxes = []string{"alpha", "lambda", "downtime"}

func sweepRequest(w *workload, p int) service.SweepRequest {
	spec := modelSpec(p)
	axis := sweepAxes[(p/modelSpace)%3]
	n := w.sweepMin + (p/(modelSpace*3))%sweepLens(w)
	cold := w.coldSweeps && (p/(modelSpace*3*sweepLens(w)))%2 == 1
	values := make([]float64, n)
	for i := range values {
		switch axis {
		case "alpha":
			values[i] = *spec.Alpha + 0.01*float64(i)
		case "lambda":
			pl, err := platform.Lookup(spec.Platform)
			if err != nil {
				panic(err)
			}
			values[i] = pl.LambdaInd * (0.5 + 0.25*float64(i))
		case "downtime":
			values[i] = *spec.Downtime * (1 + 0.25*float64(i))
		}
	}
	return service.SweepRequest{Model: spec, Axis: axis, Values: values, Cold: cold}
}

// request decodes parameter index p of kind k into its request value.
func (s *stream) request(k kind, p int) any {
	w := s.w
	switch k {
	case kOptimize:
		return service.OptimizeRequest{Model: modelSpec(p)}
	case kEvaluate:
		spec := modelSpec(p)
		return service.EvaluateRequest{Model: spec,
			P: processors(spec.Platform) * procFactors[(p/modelSpace)%len(procFactors)]}
	case kMLOptimize:
		frac := mlFractions[(p/modelSpace)%len(mlFractions)]
		return service.MultilevelOptimizeRequest{Model: modelSpec(p), InMemFraction: &frac}
	case kHeteroOptimize:
		return service.HeteroOptimizeRequest{Topology: heteroSpec(p)}
	case kSimulate:
		spec := modelSpec(p)
		return service.SimulateRequest{Model: spec,
			P:    processors(spec.Platform) * procFactors[(p/modelSpace)%3],
			Runs: w.simRuns, Patterns: w.simPats,
			Seed: 1 + uint64(p/(modelSpace*3))%4}
	case kSweep:
		return sweepRequest(w, p)
	}
	panic("unknown kind")
}

func (s *stream) buildBody(k kind, p int) ([]byte, error) {
	return json.Marshal(s.request(k, p))
}
