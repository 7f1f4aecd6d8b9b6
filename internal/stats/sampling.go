package stats

import (
	"math"
	"math/rand"
	"slices"
)

// Poisson draws a sample from a Poisson distribution with the given mean
// using Knuth's multiplication method for small means and the normal
// approximation (rounded, clamped at zero) for large means. The synthetic
// transaction generators use this for transaction and itemset sizes.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation; adequate for generator use where mean
		// only controls a size distribution, not a test statistic.
		v := rng.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Exponential draws from an exponential distribution with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Weighted draws indexes in proportion to a fixed vector of weights. The
// weights need not be normalised, and non-positive weights are never drawn.
//
// A draw is defined by a linear walk: r = rng.Float64()*total, where total
// sums the positive weights in index order; then r -= w for each positive
// (or NaN) weight in order, and the draw is the first index at which
// r <= 0, or the last positive index if rounding leaves r above 0 to the
// end. Choice returns exactly that index, but finds it in O(log n) steps:
// it binary-searches prefix sums accumulated in the walk's order for the
// first prefix >= r. Both the prefix sums and the walk's running r differ
// from their exact real values by at most about k·u·total after k
// additions or subtractions of positive weights (u = 2⁻⁵³; an addition or
// subtraction never underflows, so the bound holds down to the
// subnormals), and both sequences are monotone. Their disagreement is thus
// under 2·n·u·total, and margin = 4·n·u·total doubles that: when r lies
// more than margin from the prefix before the found one and from the found
// one, the walk's r changes sign at the same index, and the search's
// answer is the walk's. Inside the margin, or when any weight is NaN or
// ±Inf or the total overflows, Choice runs the walk itself from the same
// r. On Quest-sized pools (n = 2,000, total 1) the margin is about 10⁻¹²
// and the walk runs for almost no draw.
type Weighted struct {
	weights []float64 // a copy of the caller's weights, walked by the exact fallback
	prefix  []float64 // prefix[i]: the walk-order running sum of the positive weights[:i+1]
	total   float64
	margin  float64
	search  bool // false when a weight is NaN or ±Inf or the total overflows: every draw walks
}

// NewWeighted prepares a sampler over a copy of weights in O(n).
func NewWeighted(weights []float64) *Weighted {
	s := &Weighted{
		weights: slices.Clone(weights),
		prefix:  make([]float64, len(weights)),
		search:  true,
	}
	for i, w := range s.weights {
		if w > 0 {
			s.total += w
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			s.search = false
		}
		s.prefix[i] = s.total
	}
	if math.IsInf(s.total, 0) {
		s.search = false
	}
	s.margin = s.total * (4 * float64(len(weights)) * 0x1p-53)
	return s
}

// Choice returns an index drawn in proportion to the weights, or -1
// without consuming rng if no weight is positive.
//
//invcheck:hotpath
func (s *Weighted) Choice(rng *rand.Rand) int {
	if s.total <= 0 {
		return -1
	}
	i, _ := s.pick(rng.Float64() * s.total)
	return i
}

// pick returns the draw for r, and whether the search decided it (false
// when r fell inside the margin or the weights are not searchable, and
// the walk ran).
func (s *Weighted) pick(r float64) (int, bool) {
	if s.search {
		j, _ := slices.BinarySearch(s.prefix, r)
		if j < len(s.prefix) {
			lo := 0.0
			if j > 0 {
				lo = s.prefix[j-1]
			}
			if r-lo > s.margin && s.prefix[j]-r > s.margin {
				return j, true
			}
		}
	}
	return s.walk(r), false
}

// walk is the definition of a draw: subtract the positive (and NaN) weights
// from r in index order and stop at the first index that takes r to 0 or
// below.
func (s *Weighted) walk(r float64) int {
	for i, w := range s.weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r <= 0 {
			return i
		}
	}
	// Floating-point slack: return last positive index.
	for i := len(s.weights) - 1; i >= 0; i-- {
		if s.weights[i] > 0 {
			return i
		}
	}
	return -1
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). If k >= n it returns the full permutation of [0, n).
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k >= n {
		return rng.Perm(n)
	}
	// Floyd's algorithm: O(k) expected.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
