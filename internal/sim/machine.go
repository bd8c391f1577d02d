package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/rng"
)

// Machine is the machine-level discrete-event simulator: every one of the
// P processors is an independent error source — exponential with rate
// λ_ind by default, or any failures.Distribution renewal process via
// NewMachineDist — each error independently fail-stop with probability f.
// The job runs the VC protocol on top. In the exponential configuration
// it validates the aggregated-rate model used by the analysis and by
// Protocol: the superposition of P per-processor processes is a platform
// process of rate P·λ_ind (Proposition 1.2 of [13]), and the two
// simulators must agree statistically on every observable. In the
// non-exponential configurations it is the pricing oracle of the
// robustness studies — no aggregated fast path exists, because only the
// exponential family is closed under superposition.
//
// Model-faithful details:
//   - silent errors arriving while the job is verifying, checkpointing or
//     recovering are discarded (the paper protects I/O and verification
//     from silent corruption);
//   - no error of any kind strikes during downtime (per-processor error
//     clocks are paused);
//   - a fail-stop error anywhere aborts the pattern: downtime, recovery,
//     full re-execution.
type Machine struct {
	procs     int
	lambdaInd float64
	failFrac  float64
	// invLambdaInd caches 1/λ_ind so every per-processor arrival draw is
	// one log and one multiply (0 when λ_ind = 0, in which case no error
	// events are ever scheduled).
	invLambdaInd float64
	// dist, when non-nil, replaces the exponential law for per-processor
	// inter-arrival times. The exponential fast path keeps dist nil so
	// its draw sequence stays bit-identical to the historical simulator.
	dist failures.Distribution

	t          float64
	checkpoint float64
	recovery   float64
	verify     float64
	downtime   float64
}

// MaxMachineProcs bounds the per-processor event population the
// machine-level simulator is asked to carry. Allocations beyond it
// (unbounded-allocation optima, oversized requests) are reported
// unsimulable or rejected rather than silently mispriced.
const MaxMachineProcs = 1 << 16

// MachineProcs rounds an optimizer's (possibly fractional) allocation to
// the integral processor count the machine-level simulator replays it
// at, at least one. ok is false when that count exceeds MaxMachineProcs:
// the pattern is then off the simulable map, and procs is only the
// rounded allocation to report.
func MachineProcs(p float64) (procs float64, ok bool) {
	procs = math.Round(p)
	if !(procs >= 1) {
		procs = 1
	}
	return procs, procs <= MaxMachineProcs
}

// NewMachine builds a machine-level simulator for PATTERN(T, P) under the
// model, with exponential per-processor arrivals. P must be an integer
// processor count.
func NewMachine(m core.Model, t float64, procs int) (*Machine, error) {
	return newMachine(m, t, procs, nil)
}

// NewMachineDist builds a machine-level simulator whose per-processor
// inter-arrival times follow the given renewal law instead of the
// model's exponential. The distribution should be calibrated to the
// model's MTBF (mean 1/λ_ind) for the platform pressure to stay
// comparable; the error-pressure guard is recomputed from the law's
// actual mean, so a miscalibrated distribution is rejected rather than
// allowed to swamp the simulator. Passing an Exponential distribution
// is valid but takes the generic renewal path; use NewMachine for the
// bit-pinned exponential fast path.
func NewMachineDist(m core.Model, t float64, procs int, dist failures.Distribution) (*Machine, error) {
	if dist == nil {
		return nil, errors.New("sim: nil distribution (use NewMachine for the exponential fast path)")
	}
	// An invalid (e.g. infinite) mean would zero the effective rate and
	// walk straight past the error-pressure guard.
	if err := failures.ValidateMean(dist); err != nil {
		return nil, err
	}
	return newMachine(m, t, procs, dist)
}

func newMachine(m core.Model, t float64, procs int, dist failures.Distribution) (*Machine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(t > 0) || math.IsInf(t, 0) || procs < 1 {
		return nil, fmt.Errorf("sim: invalid machine pattern T=%g, P=%d", t, procs)
	}
	p := float64(procs)
	lf, ls := m.Rates(p)
	if dist != nil {
		// Guard with the law's true pressure, not the model's λ_ind: an
		// uncalibrated distribution (mean far below the MTBF) would
		// otherwise bypass the error-pressure check and the run could
		// effectively never complete a pattern. The exponential-form
		// estimate is an approximation for non-memoryless laws but the
		// mean arrival rate is the right first-order input.
		lambdaEff := 1 / dist.Mean()
		lf = m.FailStopFrac * lambdaEff * p
		ls = m.SilentFrac * lambdaEff * p
	}
	if expectedIters(lf, ls, t, m.Res.Verification.At(p), m.Res.Checkpoint.At(p),
		m.Res.Recovery.At(p)) > maxSimIters {
		return nil, ErrErrorPressure
	}
	mach := &Machine{
		procs:      procs,
		lambdaInd:  m.LambdaInd,
		failFrac:   m.FailStopFrac,
		dist:       dist,
		t:          t,
		checkpoint: m.Res.Checkpoint.At(p),
		recovery:   m.Res.Recovery.At(p),
		verify:     m.Res.Verification.At(p),
		downtime:   m.Res.Downtime,
	}
	if mach.lambdaInd > 0 {
		mach.invLambdaInd = 1 / mach.lambdaInd
	}
	return mach, nil
}

// machPhase enumerates the job states of the machine-level state machine.
type machPhase int

const (
	phaseComputing machPhase = iota
	phaseVerifying
	phaseCheckpointing
	phaseRecovering
)

// Workspace holds the reusable scratch state of machine-level
// simulation: the event engine (with its arena and heap capacity), each
// processor's pending-error handle, and the per-processor event handlers
// themselves. A fresh run on a reused workspace allocates nothing in
// steady state — SimulateRun draws workspaces from an internal pool, and
// callers that manage their own reuse (benchmarks, long campaigns) can
// pass one explicitly to SimulateRunWorkspace.
//
// A Workspace serves one run at a time; concurrent runs need one
// workspace each (the pool hands every goroutine its own).
type Workspace struct {
	eng Engine

	mc       *Machine
	r        *rng.Rand
	patterns int

	st    PatternStats
	phase machPhase
	// silentPending records an undetected corruption of the current
	// pattern's computation.
	silentPending bool
	// segmentDone is the pending end-of-segment event.
	segmentDone *Scheduled
	// errEvents holds each processor's pending error event.
	errEvents []*Scheduled
	done      bool

	// procActions are the per-processor error handlers, allocated once
	// per workspace (not once per event, as the closure-based simulator
	// did — that was most of its 474 allocs per run).
	procActions []func()
	// segmentFn is the bound end-of-segment handler, allocated once.
	segmentFn func()
}

// NewWorkspace returns an empty workspace; it grows to fit the first
// run and is reused allocation-free afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// reset binds the workspace to one run and clears all run state.
func (w *Workspace) reset(mc *Machine, patterns int, r *rng.Rand) {
	w.eng.Reset()
	w.mc, w.r, w.patterns = mc, r, patterns
	w.st = PatternStats{}
	w.phase = phaseComputing
	w.silentPending = false
	w.segmentDone = nil
	w.done = false
	if len(w.procActions) < mc.procs {
		w.procActions = make([]func(), mc.procs)
		for i := range w.procActions {
			w.procActions[i] = func() { w.procError(i) }
		}
		w.errEvents = make([]*Scheduled, mc.procs)
	} else {
		w.errEvents = w.errEvents[:mc.procs]
		for i := range w.errEvents {
			w.errEvents[i] = nil
		}
	}
	if w.segmentFn == nil {
		w.segmentFn = w.onSegmentDone
	}
}

// drawInterArrival samples the next per-processor gap: exponential on
// the fast path (one log, one multiply — the historical simulator's
// exact draw), the renewal law otherwise.
func (w *Workspace) drawInterArrival() float64 {
	if w.mc.dist != nil {
		return w.mc.dist.Sample(w.r)
	}
	return w.r.ExpInv(w.mc.invLambdaInd)
}

// armProc schedules the processor's next error at a known delay; the
// handler draws the following gap itself, so arrivals form a renewal
// process per processor regardless of job state.
func (w *Workspace) armProc(proc int, delay float64) {
	w.errEvents[proc] = w.eng.Schedule(delay, w.procActions[proc])
}

// procError is the error-arrival handler of one processor.
func (w *Workspace) procError(proc int) {
	if w.done {
		return
	}
	isFailStop := w.r.Float64() < w.mc.failFrac
	// Re-arm this processor's error clock first: the next renewal
	// interval starts at this arrival.
	w.armProc(proc, w.drawInterArrival())
	if isFailStop {
		w.failStop()
	} else if w.phase == phaseComputing {
		// Silent corruption of computation; detected later by the
		// verification.
		w.silentPending = true
	}
	// Silent errors during V/C/R are discarded: those phases are
	// protected (Section II, resilience model).
}

func (w *Workspace) scheduleProcError(proc int, extraDelay float64) {
	if w.mc.lambdaInd == 0 && w.mc.dist == nil {
		return
	}
	w.armProc(proc, extraDelay+w.drawInterArrival())
}

// restartClocksAfter pauses every per-processor error clock across a
// downtime ("no error strikes during downtime"). For the memoryless
// exponential, discarding the pending arrival and drawing a fresh one
// after the pause is statistically identical to pausing — and is what
// the historical simulator did, so the fast path keeps that exact draw
// sequence. A renewal process remembers its age, so the generic path
// must shift the pending arrival past the pause instead of redrawing it.
func (w *Workspace) restartClocksAfter(pause float64) {
	for i, ev := range w.errEvents {
		if w.mc.dist == nil {
			if ev != nil {
				ev.Cancel()
			}
			w.scheduleProcError(i, pause)
			continue
		}
		if ev == nil {
			continue
		}
		remaining := ev.Time() - w.eng.Now()
		ev.Cancel()
		w.armProc(i, pause+remaining)
	}
}

func (w *Workspace) startSegment() {
	var length float64
	switch w.phase {
	case phaseComputing:
		length = w.mc.t
	case phaseVerifying:
		length = w.mc.verify
	case phaseCheckpointing:
		length = w.mc.checkpoint
	case phaseRecovering:
		length = w.mc.recovery
	}
	w.segmentDone = w.eng.Schedule(length, w.segmentFn)
}

func (w *Workspace) onSegmentDone() {
	switch w.phase {
	case phaseComputing:
		w.phase = phaseVerifying
		w.startSegment()
	case phaseVerifying:
		if w.silentPending {
			w.detectAndRecover()
			return
		}
		w.phase = phaseCheckpointing
		w.startSegment()
	case phaseCheckpointing:
		w.st.Patterns++
		if w.st.Patterns >= int64(w.patterns) {
			w.done = true
			for _, ev := range w.errEvents {
				if ev != nil {
					ev.Cancel()
				}
			}
			return
		}
		w.startPattern()
	case phaseRecovering:
		w.startPattern()
	}
}

func (w *Workspace) failStop() {
	w.st.FailStops++
	if w.segmentDone != nil {
		w.segmentDone.Cancel()
	}
	w.silentPending = false
	// Downtime: errors cannot strike; re-arm clocks past it.
	w.restartClocksAfter(w.mc.downtime)
	w.phase = phaseRecovering
	w.st.Recoveries++
	w.segmentDone = w.eng.Schedule(w.mc.downtime+w.mc.recovery, w.segmentFn)
}

func (w *Workspace) detectAndRecover() {
	w.st.SilentDetections++
	w.silentPending = false
	w.phase = phaseRecovering
	w.st.Recoveries++
	w.startSegment()
}

func (w *Workspace) startPattern() {
	w.silentPending = false
	w.phase = phaseComputing
	w.startSegment()
}

// release drops the run bindings so a pooled workspace does not pin the
// machine or the rng stream alive between runs.
func (w *Workspace) release() {
	w.mc, w.r = nil, nil
}

// workspacePool recycles workspaces across SimulateRun calls: a
// Monte-Carlo campaign reuses one workspace per worker, so every run
// after the first is allocation-free.
var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// SimulateRun plays the requested number of patterns on the event engine
// and returns the same statistics as the pattern-level simulator. It
// draws a reusable workspace from an internal pool; the draw sequence
// and results are bit-identical to the historical closure-based
// simulator (pinned by the machine golden tests).
func (mc *Machine) SimulateRun(patterns int, r *rng.Rand) (PatternStats, error) {
	ws := workspacePool.Get().(*Workspace)
	st, err := mc.SimulateRunWorkspace(patterns, r, ws)
	ws.release()
	workspacePool.Put(ws)
	return st, err
}

// SimulateRunWorkspace is SimulateRun on an explicit workspace, for
// callers that manage reuse themselves. A nil workspace allocates a
// fresh one.
func (mc *Machine) SimulateRunWorkspace(patterns int, r *rng.Rand, ws *Workspace) (PatternStats, error) {
	if patterns < 1 {
		return PatternStats{}, errors.New("sim: need at least one pattern")
	}
	if r == nil {
		return PatternStats{}, errors.New("sim: nil rng")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.reset(mc, patterns, r)
	for i := 0; i < mc.procs; i++ {
		ws.scheduleProcError(i, 0)
	}
	ws.startPattern()
	ws.eng.Run()

	st := ws.st
	st.Elapsed = ws.eng.Now()
	if st.Patterns != int64(patterns) {
		return st, fmt.Errorf("sim: machine run ended with %d/%d patterns", st.Patterns, patterns)
	}
	return st, nil
}

// TheoreticalPlatformRate returns the machine's true long-run superposed
// error rate: P·λ_ind for the exponential configuration, P/mean for a
// renewal law (which NewMachineDist allows to differ from the model
// MTBF). Tests compare it against the observed rate.
func (mc *Machine) TheoreticalPlatformRate() float64 {
	if mc.dist != nil {
		return float64(mc.procs) / mc.dist.Mean()
	}
	return float64(mc.procs) * mc.lambdaInd
}
