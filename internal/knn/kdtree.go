// Package knn implements the k-nearest-neighbour classifier with two query
// backends: brute-force scan and a k-d tree (Bentley), the structure whose
// query-time advantage at low dimensionality EXP-K1 reproduces. A
// brute-force query is O(n·d); a k-d tree query averages O(log n) at low
// dimensionality and degrades toward the scan as d grows (the curse the
// experiment shows). Rows become points through dataset.Encoder, the
// encoding the neural net shares, with one-hot weight 1/√2.
package knn

import (
	"container/heap"
	"errors"
	"sort"
)

// Errors returned by the package.
var (
	ErrNoPoints = errors.New("knn: empty point set")
	ErrBadK     = errors.New("knn: k must be in [1, n]")
	ErrDims     = errors.New("knn: inconsistent dimensions")
)

// KDTree is a static k-d tree over a point set. Points are referenced by
// index so the classifier can map neighbours to labels.
type KDTree struct {
	points   [][]float64
	dims     int
	root     *kdNode
	leafSize int
}

type kdNode struct {
	axis  int
	split float64
	left  *kdNode
	right *kdNode
	// idx holds point indices at leaves (nil for interior nodes).
	idx []int
}

// DefaultLeafSize is the bucket size below which nodes stay leaves.
const DefaultLeafSize = 16

// NewKDTree builds a tree with the default leaf size.
func NewKDTree(points [][]float64) (*KDTree, error) {
	return NewKDTreeLeaf(points, DefaultLeafSize)
}

// NewKDTreeLeaf builds a tree with an explicit leaf size.
func NewKDTreeLeaf(points [][]float64, leafSize int) (*KDTree, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	dims := len(points[0])
	for _, p := range points {
		if len(p) != dims {
			return nil, ErrDims
		}
	}
	if leafSize < 1 {
		leafSize = 1
	}
	t := &KDTree{points: points, dims: dims, leafSize: leafSize}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0)
	return t, nil
}

func (t *KDTree) build(idx []int, depth int) *kdNode {
	if len(idx) <= t.leafSize {
		return &kdNode{idx: idx}
	}
	axis := depth % t.dims
	sort.Slice(idx, func(a, b int) bool {
		return t.points[idx[a]][axis] < t.points[idx[b]][axis]
	})
	mid := len(idx) / 2
	// Push equal values to the right child so the split is consistent.
	for mid > 0 && t.points[idx[mid]][axis] == t.points[idx[mid-1]][axis] {
		mid--
	}
	if mid == 0 {
		mid = len(idx) / 2
	}
	return &kdNode{
		axis:  axis,
		split: t.points[idx[mid]][axis],
		left:  t.build(append([]int(nil), idx[:mid]...), depth+1),
		right: t.build(append([]int(nil), idx[mid:]...), depth+1),
	}
}

// Neighbor is a query result: a point index with its squared distance.
type Neighbor struct {
	Index int
	Dist2 float64
}

// maxHeap over neighbour distances so the worst current neighbour pops
// first.
type nnHeap []Neighbor

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].Dist2 > h[j].Dist2 }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNearest returns the k nearest points to q sorted by ascending distance.
func (t *KDTree) KNearest(q []float64, k int) ([]Neighbor, error) {
	if k < 1 || k > len(t.points) {
		return nil, ErrBadK
	}
	if len(q) != t.dims {
		return nil, ErrDims
	}
	h := make(nnHeap, 0, k+1)
	t.search(t.root, q, k, &h)
	out := make([]Neighbor, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return out[i].Dist2 < out[j].Dist2 })
	return out, nil
}

func (t *KDTree) search(n *kdNode, q []float64, k int, h *nnHeap) {
	if n.idx != nil {
		for _, i := range n.idx {
			d2 := dist2(q, t.points[i])
			if len(*h) < k {
				heap.Push(h, Neighbor{Index: i, Dist2: d2})
			} else if d2 < (*h)[0].Dist2 {
				heap.Pop(h)
				heap.Push(h, Neighbor{Index: i, Dist2: d2})
			}
		}
		return
	}
	first, second := n.left, n.right
	if q[n.axis] >= n.split {
		first, second = n.right, n.left
	}
	t.search(first, q, k, h)
	// Prune the far side unless the splitting plane is closer than the
	// current worst neighbour (or we still lack k neighbours).
	planeD := q[n.axis] - n.split
	if len(*h) < k || planeD*planeD < (*h)[0].Dist2 {
		t.search(second, q, k, h)
	}
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// BruteKNearest is the O(n) reference query.
func BruteKNearest(points [][]float64, q []float64, k int) ([]Neighbor, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return nil, ErrBadK
	}
	h := make(nnHeap, 0, k+1)
	for i, p := range points {
		d2 := dist2(q, p)
		if len(h) < k {
			heap.Push(&h, Neighbor{Index: i, Dist2: d2})
		} else if d2 < h[0].Dist2 {
			heap.Pop(&h)
			heap.Push(&h, Neighbor{Index: i, Dist2: d2})
		}
	}
	out := make([]Neighbor, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return out[i].Dist2 < out[j].Dist2 })
	return out, nil
}
