package main

import (
	"amdahlyd/internal/fleet"
	"amdahlyd/internal/service"
)

// counterMetrics reports the engines' and the router's counter deltas
// over the timed phase as exact counts and ratios, each next to its
// base.
func counterMetrics(before, after []service.Stats, rb, ra fleet.RouterStats, lr *loopResult, isFleet bool) map[string]float64 {
	out := make(map[string]float64)
	var sb, sa service.Stats
	for i := range before {
		addStats(&sb, before[i])
		addStats(&sa, after[i])
	}
	cache := func(name string, b, a service.CacheStats) {
		hits := float64(a.Hits - b.Hits)
		lookups := hits + float64(a.Misses-b.Misses)
		out["service."+name+"_hit_ratio"] = ratio(hits, lookups)
		out["service."+name+"_lookups"] = lookups
	}
	cache("optimize", sb.OptimizeCache, sa.OptimizeCache)
	cache("frozen", sb.FrozenCache, sa.FrozenCache)
	cache("simulate", sb.SimulateCache, sa.SimulateCache)
	cache("ml_optimize", sb.MultilevelOptimizeCache, sa.MultilevelOptimizeCache)
	cache("hetero_optimize", sb.HeteroOptimizeCache, sa.HeteroOptimizeCache)
	out["service.evictions"] = float64(evictions(sa) - evictions(sb))
	calls := float64(engineCalls(sa) - engineCalls(sb))
	out["service.engine_calls"] = calls
	out["service.dedup_ratio"] = ratio(float64(sa.Deduplicated-sb.Deduplicated), calls)
	out["service.saturated"] = float64(sa.Saturated - sb.Saturated)
	out["service.busy_ratio"] = ratio(lr.busy, lr.samples)
	out["service.queued_mean"] = ratio(lr.queued, lr.samples)
	out["fleet.cached_ratio"] = ratio(float64(lr.cachedOK), float64(lr.unaryOK))
	if !isFleet {
		return out
	}
	var forwards, hedges, retries, failovers, top float64
	for name, pa := range ra.Peers {
		pb := rb.Peers[name]
		f := float64(pa.Forwards - pb.Forwards)
		forwards += f
		top = max(top, f)
		hedges += float64(pa.Hedges - pb.Hedges)
		retries += float64(pa.Retries - pb.Retries)
		failovers += float64(pa.Failovers - pb.Failovers)
	}
	sent := float64(lr.sent)
	out["fleet.forwards"] = forwards
	out["fleet.hedges"] = hedges
	out["fleet.hedge_ratio"] = ratio(hedges, sent)
	out["fleet.retry_ratio"] = ratio(retries, sent)
	out["fleet.failovers"] = failovers
	out["fleet.shed"] = float64(ra.Shed - rb.Shed)
	out["fleet.peer_imbalance"] = ratio(top, forwards/float64(len(ra.Peers)))
	return out
}

func addStats(dst *service.Stats, s service.Stats) {
	dst.OptimizeCalls += s.OptimizeCalls
	dst.SimulateCalls += s.SimulateCalls
	dst.SweepCalls += s.SweepCalls
	dst.MultilevelOptimizeCalls += s.MultilevelOptimizeCalls
	dst.MultilevelSimulateCalls += s.MultilevelSimulateCalls
	dst.MultilevelSweepCalls += s.MultilevelSweepCalls
	dst.HeteroOptimizeCalls += s.HeteroOptimizeCalls
	dst.HeteroSimulateCalls += s.HeteroSimulateCalls
	dst.HeteroSweepCalls += s.HeteroSweepCalls
	dst.Deduplicated += s.Deduplicated
	dst.Saturated += s.Saturated
	for _, c := range []struct{ d, s *service.CacheStats }{
		{&dst.FrozenCache, &s.FrozenCache},
		{&dst.OptimizeCache, &s.OptimizeCache},
		{&dst.SimulateCache, &s.SimulateCache},
		{&dst.MultilevelOptimizeCache, &s.MultilevelOptimizeCache},
		{&dst.MultilevelSimulateCache, &s.MultilevelSimulateCache},
		{&dst.HeteroOptimizeCache, &s.HeteroOptimizeCache},
		{&dst.HeteroSimulateCache, &s.HeteroSimulateCache},
	} {
		c.d.Hits += c.s.Hits
		c.d.Misses += c.s.Misses
		c.d.Evictions += c.s.Evictions
	}
}

func evictions(s service.Stats) uint64 {
	return s.FrozenCache.Evictions + s.OptimizeCache.Evictions + s.SimulateCache.Evictions +
		s.MultilevelOptimizeCache.Evictions + s.MultilevelSimulateCache.Evictions +
		s.HeteroOptimizeCache.Evictions + s.HeteroSimulateCache.Evictions
}

// engineCalls counts the engine calls that go through single-flight
// (evaluations never do).
func engineCalls(s service.Stats) uint64 {
	return s.OptimizeCalls + s.SimulateCalls + s.SweepCalls +
		s.MultilevelOptimizeCalls + s.MultilevelSimulateCalls + s.MultilevelSweepCalls +
		s.HeteroOptimizeCalls + s.HeteroSimulateCalls + s.HeteroSweepCalls
}
