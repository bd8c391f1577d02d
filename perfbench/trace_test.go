package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10, 50) once; the last child is
		// clipped to the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 50, "a": 15, "b": 30, "c": 30, "leaf": 5, "other": 7}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self(%s) = %v, want [%v]", name, got, w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, 1, func() { ran = true })
	a := tr.begin("y", 0, 1)
	a.end()
	if !ran || a.id() != 0 {
		t.Fatalf("nil tracer: ran=%v id=%d", ran, a.id())
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	tr.do("child", root.id(), 7, func() { time.Sleep(time.Millisecond) })
	root.end()
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	child, parent := tr.spans[0], tr.spans[1]
	if child.Parent != parent.ID || child.Req != 7 || child.Start < parent.Start || child.End > parent.End {
		t.Fatalf("child %+v not nested in %+v", child, parent)
	}
}
