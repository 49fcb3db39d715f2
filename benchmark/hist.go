package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// minBeyond is the number of samples that must lie beyond a
// percentile before it is reported; with fewer, the "percentile" is
// really one of the few largest samples.
const minBeyond = 10

// hist is a fixed-memory latency histogram with 16 sub-buckets per
// power of two (bucket width ≤ 6.25 %), safe for concurrent add. The
// wrappers record into it on every op so a sampled-out span still
// counts.
type hist struct {
	n atomic.Uint64
	b [64 * histSub]atomic.Uint64
}

const histSub = 16

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	sub := (v >> (uint(e) - 4)) & (histSub - 1)
	return (e-3)*histSub + int(sub)
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub + 3
	return math.Ldexp(float64(histSub+i%histSub), e-4)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n.Add(1)
	h.b[histBucket(uint64(ns))].Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (bucket midpoint), or ok=false when
// fewer than minBeyond samples lie beyond it.
func (h *hist) quantile(q float64) (v float64, ok bool) {
	n := h.n.Load()
	if float64(n)*math.Min(q, 1-q) < minBeyond {
		return 0, false
	}
	rank := uint64(q * float64(n))
	var seen uint64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen > rank {
			return (histLower(i) + histLower(i+1)) / 2, true
		}
	}
	return 0, false
}

// sortedQuantile is the q-quantile of an ascending slice, with the
// same minimum-sample rule.
func sortedQuantile(s []int32, q float64) (float64, bool) {
	if float64(len(s))*math.Min(q, 1-q) < minBeyond {
		return 0, false
	}
	return float64(s[int(q*float64(len(s)))]), true
}

// quartiles returns the first quartile, the median and the third
// quartile of vals, computed as Python's statistics.quantiles(vals,
// n=4) computes them (the "exclusive" method), which is what the
// driver applies to a metric's values across runs.
func quartiles(vals []float64) (q1, med, q3 float64) {
	switch len(vals) {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	const n = 4
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func (h *hist) merge(o *hist) {
	h.n.Add(o.n.Load())
	for i := range h.b {
		if c := o.b[i].Load(); c != 0 {
			h.b[i].Add(c)
		}
	}
}
