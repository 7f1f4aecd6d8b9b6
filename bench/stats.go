package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in (0, 100]): the
// smallest value with at least p percent of the samples at or below it.
// It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 { return medianSorted(sorted(xs)) }

// medianSorted is median for samples already in ascending order.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is what the acceptance procedure for this benchmark uses. One
// sample is its own quartiles; no samples give 0.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quiet aggregates one per-window statistic into the run's value: the
// quartile on the good side of the windows (first quartile when lower is
// better, third when higher is). Interference from the host only ever
// slows a window down, never speeds it up, so the quiet quartile estimates
// the program's own cost and repeats about twice as tightly between runs
// on this kind of sandbox as the median across windows does; a change to
// the program moves every window and therefore moves the quartile too.
// Windows are sized to span every periodic activity of the program
// (maintains, snapshots, GC cycles), so no window is quiet because the
// program skipped work in it.
func quiet(perWindow []float64, lowerIsBetter bool) float64 {
	q1, q3 := quartiles(perWindow)
	if lowerIsBetter {
		return q1
	}
	return q3
}

// spreadPct is the interquartile range of xs as a percentage of their
// median — the noise gauge printed per run (across windows) and by the
// A/A mode (across runs).
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return 100 * (q3 - q1) / math.Abs(m)
}
