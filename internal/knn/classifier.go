package knn

import (
	"errors"
	"math"

	"repro/internal/dataset"
)

// Classifier is a k-nearest-neighbour classifier over a dataset.Table.
// Rows are encoded by dataset.Encoder: numeric attributes are min-max
// scaled to [0, 1] (so no attribute dominates the distance), missing
// values sit at the midpoint 0.5, and categorical attributes become
// one-hot blocks weighted by oneHotWeight, so they contribute the
// standard 0/1 mismatch term.
type Classifier struct {
	K       int
	UseTree bool

	nClasses int
	enc      *dataset.Encoder
	vectors  [][]float64
	labels   []int
	tree     *KDTree
}

// oneHotWeight is 1/√2: two differing categories then contribute
// exactly 1 to the squared distance, the 0/1 mismatch convention.
const oneHotWeight = 1 / math.Sqrt2

// ErrNoClassAttr reports a table without a categorical class.
var ErrNoClassAttr = errors.New("knn: table has no categorical class attribute")

// Train memorises the training table (kNN is lazy; "training" fits the
// encoding and optionally builds a k-d tree with DefaultLeafSize).
func Train(t *dataset.Table, k int, useTree bool) (*Classifier, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoPoints
	}
	if k < 1 || k > t.NumRows() {
		return nil, ErrBadK
	}
	if t.NumClasses() < 1 {
		return nil, ErrNoClassAttr
	}
	c := &Classifier{
		K: k, UseTree: useTree,
		nClasses: t.NumClasses(),
		enc:      dataset.NewEncoder(t, oneHotWeight),
	}
	c.vectors = make([][]float64, t.NumRows())
	c.labels = make([]int, t.NumRows())
	for i, row := range t.Rows {
		c.vectors[i] = c.enc.Encode(row)
		c.labels[i] = t.Class(i)
	}
	if useTree {
		tree, err := NewKDTree(c.vectors)
		if err != nil {
			return nil, err
		}
		c.tree = tree
	}
	return c, nil
}

// Predict returns the majority class among the k nearest neighbours,
// breaking ties toward the nearer neighbour's class.
func (c *Classifier) Predict(row []float64) int {
	q := c.enc.Encode(row)
	var nn []Neighbor
	if c.tree != nil {
		nn, _ = c.tree.KNearest(q, c.K)
	} else {
		nn, _ = BruteKNearest(c.vectors, q, c.K)
	}
	votes := make([]int, c.nClasses)
	for _, nb := range nn {
		votes[c.labels[nb.Index]]++
	}
	best, bestVotes := -1, -1
	for _, nb := range nn { // iterate nearest-first for tie-breaking
		cl := c.labels[nb.Index]
		if votes[cl] > bestVotes {
			best, bestVotes = cl, votes[cl]
		}
	}
	return best
}
