package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call the benchmark made into a layer's public
// function. Start and End are nanoseconds since the tracer's epoch; Req
// groups the spans of one request (or grid job).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code path is
// the same in both modes apart from the recording itself.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end closes and records it.
type active struct {
	t  *tracer
	sp span
}

// begin opens a span named name under parent (0 for a root).
func (t *tracer) begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, sp: span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// id is the span's identifier, the parent argument for its children.
func (a active) id() int64 { return a.sp.ID }

func (a active) end() {
	if a.t == nil {
		return
	}
	a.sp.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.sp)
	a.t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int64, fn func()) {
	a := t.begin(name, parent, req)
	fn()
	a.end()
}

// selfTimes returns, per span name, the self time of every span with
// that name: its duration minus the part of its interval covered by the
// union of its children's intervals.
func selfTimes(spans []span) map[string][]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, lo, hi int64
		open := false // whether [lo, hi) holds a merged interval
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if !open || a > hi {
				if open {
					covered += hi - lo
				}
				lo, hi, open = a, b, true
				continue
			}
			hi = max(hi, b)
		}
		if open {
			covered += hi - lo
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered))
	}
	return out
}

// durations returns, per span name, the full durations.
func durations(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	N         int     `json:"n"`
	P50us     float64 `json:"p50_us"`
	SelfP50us float64 `json:"self_p50_us"`
}

func summarize(spans []span) map[string]spanStat {
	self, full := selfTimes(spans), durations(spans)
	out := make(map[string]spanStat, len(full))
	for name, ds := range full {
		out[name] = spanStat{N: len(ds), P50us: median(durMs(ds)) * 1e3,
			SelfP50us: median(durMs(self[name])) * 1e3}
	}
	return out
}

// write emits the spans as NDJSON in recording order.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
