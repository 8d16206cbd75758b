package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func percentile(xs []float64, p float64) float64 { return percentileSorted(sorted(xs), p) }

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf is the smallest value; 0 for an empty sample.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest percentile, capped at maxP, that still
// has at least minBeyond samples above it — a p99 of 400 samples rests on
// four values and repeats badly, so the sample decides how far out we
// look. It returns the percentile used and its value; fewer than
// 2·minBeyond samples fall back to the median.
func tailPercentile(xs []float64, maxP float64, minBeyond int) (p, v float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, 0
	}
	if n < 2*minBeyond {
		return 50, percentileSorted(s, 50)
	}
	p = 100 * float64(n-minBeyond) / float64(n)
	if p > maxP {
		p = maxP
	}
	return p, percentileSorted(s, p)
}

// windowedTail splits samples (in arrival order) into equal consecutive
// windows of at least minPerWindow samples, at most maxWindows of them,
// takes tailPercentile in each and returns the median of those values with
// the lowest percentile any window could support. A single long stall then
// moves one window, not the reported figure.
func windowedTail(xs []float64, maxP float64, minBeyond, minPerWindow, maxWindows int) (p, v float64, windows int) {
	windows = len(xs) / minPerWindow
	if windows > maxWindows {
		windows = maxWindows
	}
	if windows < 1 {
		windows = 1
	}
	vals := make([]float64, 0, windows)
	p = maxP
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		wp, wv := tailPercentile(xs[lo:hi], maxP, minBeyond)
		if wp < p {
			p = wp
		}
		vals = append(vals, wv)
	}
	return p, median(vals), windows
}

// relDiff is |a−b| as a share of a; 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
