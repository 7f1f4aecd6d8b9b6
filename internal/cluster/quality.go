package cluster

import (
	"errors"
	"math"
)

// ErrLabelLength reports mismatched label slices.
var ErrLabelLength = errors.New("cluster: label slices differ in length")

// RandIndex computes the Rand index between two labelings: the fraction of
// point pairs on which the labelings agree (same cluster in both, or
// different clusters in both). Noise labels (-1) are treated as singleton
// clusters distinct from each other, the usual convention when scoring
// DBSCAN against ground truth.
func RandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLabelLength
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	agree := 0
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameA := a[i] == a[j] && a[i] != Noise
			sameB := b[i] == b[j] && b[i] != Noise
			if sameA == sameB {
				agree++
			}
			total++
		}
	}
	return float64(agree) / float64(total), nil
}

// Silhouette computes the mean silhouette coefficient (Rousseeuw, 1987)
// of a labeling: for each non-noise point, (b-a)/max(a,b) where a is its
// mean distance to its own cluster and b the smallest mean distance to
// another cluster. Points in singleton clusters score 0, the convention
// Rousseeuw recommends; noise points are skipped. Values near 1 indicate
// tight, well-separated clusters. O(n²).
func Silhouette(points [][]float64, labels []int) (float64, error) {
	if len(points) != len(labels) {
		return 0, ErrLabelLength
	}
	byCluster := make(map[int][]int)
	for i, l := range labels {
		if l != Noise {
			byCluster[l] = append(byCluster[l], i)
		}
	}
	if len(byCluster) < 2 {
		return 0, errors.New("cluster: silhouette needs at least two clusters")
	}
	total, counted := 0.0, 0
	for i, l := range labels {
		if l == Noise {
			continue
		}
		own := byCluster[l]
		if len(own) == 1 {
			counted++ // score 0
			continue
		}
		a := 0.0
		for _, j := range own {
			if j != i {
				a += Euclidean(points[i], points[j])
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for other, members := range byCluster {
			if other == l {
				continue
			}
			d := 0.0
			for _, j := range members {
				d += Euclidean(points[i], points[j])
			}
			d /= float64(len(members))
			if d < b {
				b = d
			}
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
		counted++
	}
	if counted == 0 {
		return 0, errors.New("cluster: no non-noise points")
	}
	return total / float64(counted), nil
}
