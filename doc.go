// Package amdahlyd reproduces "When Amdahl Meets Young/Daly" (Cavelan,
// Li, Robert, Sun — IEEE Cluster 2016): the optimal processor allocation
// and checkpointing period for a parallel job whose speedup obeys
// Amdahl's law, on a platform subject to both fail-stop and silent
// errors, protected by verified checkpoints (the VC protocol).
//
// The library lives under internal/:
//
//   - internal/core — exact expected pattern time (Proposition 1),
//     Theorems 1–3, case analysis and validity bounds;
//   - internal/optimize — the numerical (T, P) optimizer;
//   - internal/sim — pattern-level and machine-level Monte-Carlo
//     simulators of the VC protocol;
//   - internal/experiments — drivers regenerating Figs. 2–7;
//   - internal/baselines — Young, Daly, fail-stop-only and
//     iterative-relaxation comparators;
//   - internal/multilevel — the two-level pattern extension (future
//     work in the paper's Section V), end-to-end: joint (T, K, P)
//     optimizer, warm-start sweep solver and parallel campaigns;
//   - internal/hetero — heterogeneous platform topologies: per-group
//     compilation of a platform.Topology and the joint work-split
//     optimizer with its own warm-start sweep solver;
//   - internal/service — the long-running evaluation service behind
//     cmd/amdahl-serve;
//   - internal/campaign — the crash-safe, resumable grid orchestrator
//     behind "amdahl-exp campaign";
//   - substrates: speedup, costmodel, platform, failures, rng, stats,
//     xmath, report.
//
// # Evaluator architecture: Model vs Frozen
//
// internal/core deliberately exposes the paper's formulas twice. Model is
// the specification: every method takes (t, p) and derives the platform
// rates, resilience costs and exponentials from first principles on each
// call — use it for one-off evaluations, validation and readable code.
// core.Frozen is the compiled kernel: Model.Freeze(p) hoists everything
// that is invariant for a fixed processor count (λf_P, λs_P, C_P, R_P,
// V_P, D, 1/λf + D, e^{λf·C}, e^{λf·R}, H(P), the Theorem 1 constants and
// the λf→0 branch decision) so that PatternTime/Overhead cost two expm1
// calls and a handful of multiplies, allocation-free. The two paths are
// bit-exact by construction — Model methods are thin wrappers over a
// one-shot Freeze, and property tests pin the equivalence — so use Frozen
// in any loop that holds P fixed (the period minimizer probes one P
// thousands of times; the Monte-Carlo runner prices one (T, P) over
// hundreds of runs) and Model everywhere else.
//
// # Failure distributions beyond the exponential
//
// The paper's model is memoryless end to end; real platform logs are
// not (Weibull shape < 1 is the standard fit). failures.Distribution
// generalizes the inter-arrival law — Exponential, Weibull, LogNormal,
// Gamma, each calibrated to the platform MTBF so rates stay comparable
// — with raw draws in internal/rng. The law threads through the trace
// generator (failures.GenerateTraceDist), the machine-level simulator
// (sim.NewMachineDist, per-processor renewal clocks that pause across
// downtime), and experiments.RobustnessStudyContext ("amdahl-exp
// robustness"), which prices the exponential-optimal pattern under the
// true law against a re-tuned period at sim.MachineProcs(P*), the one
// rounding and population-cap rule every machine-level pricing uses. Exponential fast paths stay bit-identical
// for fixed seeds, pinned by golden tests. See DESIGN.md.
//
// # Batch sweeps: SweepSolver, not per-cell solves
//
// Sweep-shaped work — many optimizations along an ordered axis over
// which the optimum varies smoothly — should go through
// optimize.SweepSolver / optimize.BatchOptimalPattern (or the service's
// POST /v1/sweep, which adds per-cell caching and single-flight),
// never through per-cell OptimalPattern calls: the solver warm-starts
// each cell from its neighbour's optimum (narrow bracket + Brent
// polish, cold fallback on class changes or bracket escapes) at ~an
// order of magnitude below the per-cell cost, with property tests
// pinning warm-vs-cold agreement. The experiment drivers (Figs. 2, 4–7,
// baselines, robustness) already route through it; amdahl-exp
// -warm=false restores the per-cell scans. See DESIGN.md, "Warm-start
// sweep solver".
//
// # Two-level resilience end-to-end
//
// internal/multilevel promotes the Section V two-level protocol (cheap
// in-memory checkpoints under the disk level) to a first-class
// workload: multilevel.OptimalPattern searches the joint (T, K, P) box
// — the paper's central how-many-processors question asked of the
// two-level protocol — with a closed-form inner (T, K) solve per
// compiled evaluator; multilevel.SweepSolver warm-starts
// (T*, K*, P*) chains along smooth axes exactly like
// optimize.SweepSolver; Simulator.SimulateContext prices patterns on
// the shared chunked-dispatch runner (sim.ForEachRun) with per-run
// streams and fail-fast cancellation, and multilevel.SimulateModel is
// the one path from a core.Model to a priced two-level pattern. New
// two-level work goes through multilevel.SweepSolver (or POST
// /v1/multilevel/*), never per-cell FirstOrder calls in a loop. The
// study driver is experiments.MultilevelStudyContext ("amdahl-exp
// multilevel"); the service
// endpoints are /v1/multilevel/optimize, /v1/multilevel/simulate and
// the "multilevel" axis switch on /v1/sweep, cached under the
// versioned ml1| key namespace. See DESIGN.md, "Multilevel
// end-to-end".
//
// # Heterogeneous platform topologies
//
// The paper's platform is P interchangeable processors with one failure
// law and one checkpoint cost. platform.Topology generalizes it to
// named groups — per-group error rate, speed, size and checkpoint/
// verification costs, plus one inter-group comm coefficient — and
// hetero.CompileTopology lowers a topology to a core.HeteroModel whose
// groups are ordinary Models (comm enters as an AmdahlComm speedup
// profile, versioned under the hg1| cache-key namespace). A one-group
// zero-comm topology compiles bit-identically to the classical Model.
// hetero.OptimalPattern answers the joint question: which groups to
// activate, how to split the work (harmonic in the per-group effective
// overheads), and each group's own (T, P) — warm-started along smooth
// axes by hetero.SweepSolver over per-(group, active-count) chains.
// Group-shaped platform work goes through platform.Topology +
// hetero.SweepSolver, not ad-hoc per-group loops. The study driver is
// experiments.HeterogeneousStudyContext ("amdahl-exp hetero"); the
// service endpoints are /v1/hetero/optimize, /v1/hetero/simulate and
// the "hetero" switch on /v1/sweep; the campaign preset is "hetero"
// (comm axis). hetero.SimulatePlan prices a joint plan: hetero.RunPlan
// lowers it to per-group comm-charged models and sim.SimulateHetero
// runs them on the shared chunked runner, scoring each run by its
// makespan overhead max_g x_g·H_g. See
// DESIGN.md, "Heterogeneous topologies".
//
// # Service layer
//
// internal/service + cmd/amdahl-serve turn the analyses into a planning
// API: JSON endpoints for evaluate (exact overhead/pattern time at a
// given (T, P)), optimize ((T*, P*) via internal/optimize), simulate
// (seeded Monte-Carlo campaigns, machine-level and -dist laws included)
// and sweep (a whole axis solved as one warm-start chain, streamed as
// NDJSON, one cache entry per cell).
// The engine caches compiled Frozen evaluators, optimizer results and
// campaign results in sharded LRUs under canonical model keys
// (core.Model.CacheKey: exact hex float encoding, structural profile
// keys), deduplicates concurrent identical requests (single-flight, one
// solve per key), bounds heavy jobs on a scheduler, and threads request
// contexts into sim.SimulateContext so a client hang-up aborts its
// campaign. Responses are bit-identical to the equivalent CLI invocation
// for fixed seeds; campaigns replay from cache bit-exactly because they
// are pure functions of their seeded configuration. Cancellation is also
// available library-side: sim.SimulateContext and the ...Context
// experiment drivers (Fig2Context et al.) abort between runs and fail
// fast on the first error. See DESIGN.md, "Service layer".
//
// # Enforced invariants: amdahl-lint
//
// The conventions the architecture depends on — hot loops on
// core.Frozen, NaN-proof float validation (!(x > 0), never x <= 0),
// artifact writes through internal/atomicio, randomness through
// internal/rng, cache keys in exact hex, sorted iteration wherever map
// contents become output, wall-clock readings confined to the
// latency/backoff packages, rng seeds derived only from canonical
// material, 5xx classification centralized in service/fleet — are
// enforced mechanically by cmd/amdahl-lint, a multichecker over the
// nine analyzers in internal/analyzers (frozenloop, nanguard,
// atomicwrite, rawrand, keyfmt, mapiter, walltime, seedflow,
// errclass). The last two are interprocedural: they attach
// gob-serialized facts to objects, carried between packages in
// dependency order and between `go vet` compilation units in .vetx
// stamp files. CI runs the suite via scripts/lint.sh; it also speaks
// the `go vet -vettool` protocol and emits -json NDJSON or
// -format=github annotations. Justified exceptions are annotated in
// place with `//lint:allow <analyzer> <reason>`. New cross-cutting
// invariants ship with an analyzer, not a comment. See DESIGN.md,
// "Enforced invariants".
//
// Executables: cmd/amdahl-opt (optimal patterns), cmd/amdahl-sim
// (Monte-Carlo pricing of one pattern), cmd/amdahl-exp (regenerate the
// paper's figures plus the profile, baseline and robustness extension
// studies), cmd/amdahl-trace (generate, verify and replay failure
// traces, exponential or not), and cmd/amdahl-serve (the HTTP planning
// service). Runnable examples live in examples/.
//
// The benchmarks in this package regenerate each of the paper's figures
// (BenchmarkFig2 … BenchmarkFig7) at a reduced Monte-Carlo budget and
// measure the hot paths (exact formula, optimizers, simulators).
package amdahlyd
