// Package stats provides the small statistical toolkit shared by the mining
// packages: descriptive statistics, chi-square tests for predictor ranking,
// and distribution sampling helpers used by the synthetic data generators.
//
// Everything here is deterministic given a seed; nothing reads global
// state, and every helper is a single pass (or one sort) over its input.
// The one prepared structure is Weighted, the generators' pattern sampler:
// NewWeighted is one O(n) pass, and each Choice is a binary search over
// prefix sums, O(log n), that returns exactly the index of the linear
// subtract-walk it replaces, draw for draw. A draw whose r lies within a
// rounding margin (4·n·2⁻⁵³·total) of a prefix sum, or any draw over a NaN
// or infinite weight, runs that walk itself (Weighted's doc gives the
// argument).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by descriptive statistics that are undefined on
// empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It requires at least two observations.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2], nil
	}
	return (cp[n/2-1] + cp[n/2]) / 2, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, without modifying xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0], nil
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo], nil
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac, nil
}

// Summary holds the standard five-number-plus summary for a numeric column.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m, _ := Mean(xs)
	sd := 0.0
	if len(xs) > 1 {
		sd, _ = StdDev(xs)
	}
	min, max, _ := MinMax(xs)
	med, _ := Median(xs)
	return Summary{N: len(xs), Mean: m, StdDev: sd, Min: min, Median: med, Max: max}, nil
}
