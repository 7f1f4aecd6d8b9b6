// Package stats provides the small statistical toolkit shared by the mining
// packages: chi-square tests for predictor ranking, and distribution
// sampling helpers used by the synthetic data generators.
//
// Everything here is deterministic given a seed; nothing reads global
// state, and every helper is a single pass over its input.
// The one prepared structure is Weighted, the generators' pattern sampler:
// NewWeighted is one O(n) pass, and each Choice is a binary search over
// prefix sums, O(log n), that returns exactly the index of the linear
// subtract-walk it replaces, draw for draw. A draw whose r lies within a
// rounding margin (4·n·2⁻⁵³·total) of a prefix sum, or any draw over a NaN
// or infinite weight, runs that walk itself (Weighted's doc gives the
// argument).
package stats
