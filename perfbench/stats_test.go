package main

import (
	"math"
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	var raw []float64
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i) * 3 * time.Microsecond
		h.add(d)
		raw = append(raw, float64(d)/1e6)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := quantile(raw, q)
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/(1<<histSub) {
			t.Errorf("q%.2f = %v ms, exact %v ms", q, got, want)
		}
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty histogram has a median")
	}
	var tiny hist
	tiny.add(10) // below the first bucket
	tiny.add(time.Hour)
	if got := tiny.quantile(1); !(got > 1e5) {
		t.Errorf("clamped maximum = %v ms", got)
	}
}
