package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1); xs is
// sorted in place. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratio is num/den, or 0 when there is no base to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a log-linear latency histogram: 2^histSub buckets per power of
// two of nanoseconds from 128 ns up, so recording is allocation-free and
// the benchmark's own heap stays flat however long it runs (a growing
// sample slice would raise the in-process servers' GC goal as the run
// goes on). Quantiles interpolate within a bucket of relative width
// 2^-histSub.
type hist struct {
	counts [histOctaves << histSub]uint32
	total  int64
}

const (
	histSub     = 7
	histMinExp  = 7  // 128 ns: smaller values land in the first bucket
	histOctaves = 30 // up to 2^37 ns ≈ 137 s
)

func (h *hist) add(d time.Duration) {
	v := uint64(max(d, 1<<histMinExp))
	e := bits.Len64(v) - 1
	if e >= histMinExp+histOctaves {
		v, e = 1<<(histMinExp+histOctaves)-1, histMinExp+histOctaves-1
	}
	sub := (v >> (e - histSub)) & (1<<histSub - 1)
	h.counts[(e-histMinExp)<<histSub|int(sub)]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the nearest-rank q-quantile in milliseconds, or NaN
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	rank := max(int64(math.Ceil(q*float64(h.total))), 1)
	var cum int64
	for i, c := range h.counts {
		if c == 0 || cum+int64(c) < rank {
			cum += int64(c)
			continue
		}
		e := uint(i>>histSub) + histMinExp
		sub := uint64(i & (1<<histSub - 1))
		lo := float64((1<<histSub | sub) << (e - histSub))
		width := float64(uint64(1) << (e - histSub))
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return (lo + width*frac) / 1e6
	}
	return math.NaN()
}
