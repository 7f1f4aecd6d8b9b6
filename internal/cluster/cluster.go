// Package cluster implements the clustering algorithms surveyed by the
// tutorial: k-means (Lloyd), the k-medoid family PAM / CLARA / CLARANS
// (Kaufman & Rousseeuw; Ng & Han, VLDB'94), agglomerative hierarchical
// clustering with the classic linkages, density-based DBSCAN (Ester et al.,
// KDD'96), and the CF-tree-based BIRCH (Zhang, Ramakrishnan & Livny,
// SIGMOD'96).
//
// All algorithms operate on [][]float64 row-major point sets and are
// deterministic given their seed. Costs span the survey's spectrum:
// k-means is O(iters·n·k·d); PAM is O(iters·k·(n-k)²) which CLARA tames by
// sampling and CLARANS by randomized neighbour search; hierarchical
// linkage is O(n²·d) space and worse time; DBSCAN is O(n²) scanning or
// ~O(n log n) with the grid index; BIRCH clusters in one pass over a
// bounded-memory CF tree.
package cluster

import (
	"errors"
	"fmt"
	"math"
)

// Errors shared across the package.
var (
	ErrBadK      = errors.New("cluster: k must be in [1, n]")
	ErrNoPoints  = errors.New("cluster: empty point set")
	ErrDims      = errors.New("cluster: points have inconsistent dimensions")
	ErrBadParams = errors.New("cluster: invalid parameters")
)

// Noise is the assignment label DBSCAN gives to noise points.
const Noise = -1

// Result is the common output shape of the clusterers.
type Result struct {
	// Assignments maps each input point to a cluster id (or Noise).
	Assignments []int
	// Centers holds cluster centroids for centroid-based methods; nil
	// otherwise.
	Centers [][]float64
	// Medoids holds medoid point indices for medoid-based methods; nil
	// otherwise.
	Medoids []int
	// Cost is the algorithm's objective: SSE for k-means/BIRCH, the sum
	// of point-to-medoid distances for the k-medoid family, 0 for methods
	// without a single objective (hierarchical, DBSCAN).
	Cost float64
	// Iterations counts outer iterations where meaningful.
	Iterations int
}

// NumClusters returns the number of distinct non-noise clusters.
func (r *Result) NumClusters() int {
	seen := make(map[int]struct{})
	for _, a := range r.Assignments {
		if a != Noise {
			seen[a] = struct{}{}
		}
	}
	return len(seen)
}

// SquaredEuclidean returns the squared L2 distance.
func SquaredEuclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Euclidean returns the L2 distance.
func Euclidean(a, b []float64) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// validate checks the shared preconditions and returns (n, dims).
func validate(points [][]float64) (int, int, error) {
	if len(points) == 0 {
		return 0, 0, ErrNoPoints
	}
	dims := len(points[0])
	if dims == 0 {
		return 0, 0, fmt.Errorf("%w: zero-dimensional points", ErrDims)
	}
	for i, p := range points {
		if len(p) != dims {
			return 0, 0, fmt.Errorf("%w: point %d has %d dims, want %d", ErrDims, i, len(p), dims)
		}
	}
	return len(points), dims, nil
}

func validateK(points [][]float64, k int) (int, int, error) {
	n, dims, err := validate(points)
	if err != nil {
		return 0, 0, err
	}
	if k < 1 || k > n {
		return 0, 0, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	return n, dims, nil
}

// MedoidCost computes the sum of Euclidean distances of each point to its
// nearest medoid — the k-medoid objective.
func MedoidCost(points [][]float64, medoids []int) float64 {
	total := 0.0
	for _, p := range points {
		best := math.Inf(1)
		for _, m := range medoids {
			if d := Euclidean(p, points[m]); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// assignToNearest fills assignments with the index of the nearest center
// and returns the SSE.
func assignToNearest(points [][]float64, centers [][]float64, assignments []int) float64 {
	total := 0.0
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, ctr := range centers {
			if d := SquaredEuclidean(p, ctr); d < bestD {
				best, bestD = c, d
			}
		}
		assignments[i] = best
		total += bestD
	}
	return total
}
