package cluster

import (
	"fmt"
	"math"
)

// BIRCH (Zhang, Ramakrishnan & Livny, SIGMOD'96) summarises the dataset in
// one scan into a CF-tree — a height-balanced tree of clustering features
// CF = (N, LS, SS) — then clusters the leaf entries globally and refines.
//
// This implementation performs the paper's phases 1 (tree building), 3
// (global clustering of leaf CFs, here weighted k-means on CF centroids)
// and 4 (one refinement pass assigning every point to the nearest final
// centroid). Phase 2 (tree condensing under memory pressure) is not needed
// in-memory: the threshold rebuild loop below serves the same purpose when
// the leaf count exceeds MaxLeafEntries overall.
type BIRCH struct {
	K int
	// Threshold is the initial CF absorption radius; entries absorb a
	// point when the resulting cluster radius stays below it. Zero picks
	// a data-driven default and grows by rebuilds when the tree gets
	// too large.
	Threshold float64
	// Branching caps child entries of interior nodes (paper's B); zero
	// means 8.
	Branching int
	// LeafEntries caps entries per leaf (paper's L); zero means 8.
	LeafEntries int
	// MaxLeaves bounds total leaf entries before a rebuild with doubled
	// threshold; zero means 512.
	MaxLeaves int
	// Seed feeds only the plain k-means that runs instead of phase 3
	// when the tree holds fewer than K leaf entries; phase 3 itself
	// seeds farthest-first and draws no random numbers.
	Seed int64
}

// cf is a clustering feature.
type cf struct {
	n  float64
	ls []float64
	ss float64
}

func newCF(dims int) *cf { return &cf{ls: make([]float64, dims)} }

func (c *cf) addPoint(p []float64) {
	c.n++
	for d := range p {
		c.ls[d] += p[d]
		c.ss += p[d] * p[d]
	}
}

func (c *cf) merge(o *cf) {
	c.n += o.n
	for d := range c.ls {
		c.ls[d] += o.ls[d]
	}
	c.ss += o.ss
}

// centroid writes LS/N into dst and returns it.
func (c *cf) centroid(dst []float64) []float64 {
	for d := range c.ls {
		dst[d] = c.ls[d] / c.n
	}
	return dst
}

// radius is the RMS distance of member points to the centroid:
// sqrt(SS/N - ||LS/N||²), clamped at zero against rounding.
func (c *cf) radius() float64 {
	if c.n == 0 {
		return 0
	}
	m := 0.0
	for d := range c.ls {
		mu := c.ls[d] / c.n
		m += mu * mu
	}
	v := c.ss/c.n - m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// cfNode is a CF-tree node; leaves hold entry CFs, interior nodes hold
// child pointers with summary CFs.
type cfNode struct {
	leaf     bool
	entries  []*cf     // leaf entries, or summaries of children
	children []*cfNode // parallel to entries for interior nodes
}

// Run clusters the points.
func (b *BIRCH) Run(points [][]float64) (*Result, error) {
	n, dims, err := validateK(points, b.K)
	if err != nil {
		return nil, err
	}
	branching := b.Branching
	if branching <= 0 {
		branching = 8
	}
	leafEntries := b.LeafEntries
	if leafEntries <= 0 {
		leafEntries = 8
	}
	maxLeaves := b.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = 512
	}
	if maxLeaves < b.K {
		maxLeaves = b.K
	}
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = b.defaultThreshold(points, dims)
	}

	// Phase 1 with rebuild loop: insert all points; if the tree exceeds
	// maxLeaves leaf entries, double the threshold and rebuild from the
	// existing leaf CFs (the paper rebuilds from CFs, not raw points).
	tree := &cfTree{dims: dims, threshold: threshold, branching: branching, leafEntries: leafEntries}
	for _, p := range points {
		tree.insertPoint(p)
		if tree.numLeafEntries > maxLeaves {
			tree = tree.rebuild(threshold * 2)
			threshold *= 2
		}
	}

	// Phase 3: weighted k-means over leaf-entry centroids.
	leaves := tree.leafCFs(nil)
	if len(leaves) < b.K {
		// Degenerate: fall back to direct k-means on the raw points.
		km := &KMeans{K: b.K, Seed: b.Seed}
		return km.Run(points)
	}
	centers, err := weightedKMeans(leaves, b.K, dims)
	if err != nil {
		return nil, err
	}

	// Phase 4: assign raw points to the final centroids.
	assignments := make([]int, n)
	cost := assignToNearest(points, centers, assignments)
	return &Result{
		Assignments: assignments,
		Centers:     centers,
		Cost:        cost,
		Iterations:  1,
	}, nil
}

// defaultThreshold estimates a starting absorption radius from the average
// nearest-distance of a small prefix sample.
func (b *BIRCH) defaultThreshold(points [][]float64, dims int) float64 {
	m := len(points)
	if m > 100 {
		m = 100
	}
	total, cnt := 0.0, 0
	for i := 0; i < m; i++ {
		best := math.Inf(1)
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if d := Euclidean(points[i], points[j]); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			total += best
			cnt++
		}
	}
	if cnt == 0 || total == 0 {
		return 1e-6
	}
	return total / float64(cnt)
}

// cfTree wraps the root with the tree parameters.
type cfTree struct {
	dims           int
	threshold      float64
	branching      int
	leafEntries    int
	root           *cfNode
	numLeafEntries int
}

func (t *cfTree) insertPoint(p []float64) {
	e := newCF(t.dims)
	e.addPoint(p)
	t.insertCF(e)
}

func (t *cfTree) insertCF(e *cf) {
	if t.root == nil {
		t.root = &cfNode{leaf: true}
	}
	split := t.insert(t.root, e)
	if split != nil {
		// Root split: grow the tree by one level.
		newRoot := &cfNode{leaf: false}
		for _, child := range []*cfNode{t.root, split} {
			s := newCF(t.dims)
			for _, ce := range child.entries {
				s.merge(ce)
			}
			newRoot.entries = append(newRoot.entries, s)
			newRoot.children = append(newRoot.children, child)
		}
		t.root = newRoot
	}
}

// insert adds e under n and returns a new sibling if n split.
func (t *cfTree) insert(n *cfNode, e *cf) *cfNode {
	if n.leaf {
		// Try to absorb into the closest entry.
		best, bestD := -1, math.Inf(1)
		ec := make([]float64, t.dims)
		e.centroid(ec)
		cc := make([]float64, t.dims)
		for i, entry := range n.entries {
			if d := Euclidean(entry.centroid(cc), ec); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			trial := &cf{n: n.entries[best].n, ls: append([]float64(nil), n.entries[best].ls...), ss: n.entries[best].ss}
			trial.merge(e)
			if trial.radius() <= t.threshold {
				n.entries[best] = trial
				return nil
			}
		}
		n.entries = append(n.entries, e)
		t.numLeafEntries++
		if len(n.entries) <= t.leafEntries {
			return nil
		}
		return t.splitNode(n)
	}

	// Interior: descend into the child whose summary centroid is closest.
	ec := make([]float64, t.dims)
	e.centroid(ec)
	cc := make([]float64, t.dims)
	best, bestD := 0, math.Inf(1)
	for i, s := range n.entries {
		if d := Euclidean(s.centroid(cc), ec); d < bestD {
			best, bestD = i, d
		}
	}
	split := t.insert(n.children[best], e)
	n.entries[best].merge(e)
	if split == nil {
		return nil
	}
	// Recompute the split child's summary and add the new sibling.
	n.entries[best] = summarize(n.children[best], t.dims)
	s := summarize(split, t.dims)
	n.entries = append(n.entries, s)
	n.children = append(n.children, split)
	if len(n.entries) <= t.branching {
		return nil
	}
	return t.splitNode(n)
}

func summarize(n *cfNode, dims int) *cf {
	s := newCF(dims)
	for _, e := range n.entries {
		s.merge(e)
	}
	return s
}

// splitNode splits n by the farthest-pair seed rule and returns the new
// sibling; n keeps one group.
func (t *cfTree) splitNode(n *cfNode) *cfNode {
	m := len(n.entries)
	cents := make([][]float64, m)
	for i, e := range n.entries {
		cents[i] = e.centroid(make([]float64, t.dims))
	}
	// Farthest pair as seeds.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := SquaredEuclidean(cents[i], cents[j]); d > worst {
				s1, s2, worst = i, j, d
			}
		}
	}
	sib := &cfNode{leaf: n.leaf}
	var keepE, sibE []*cf
	var keepC, sibC []*cfNode
	for i := 0; i < m; i++ {
		toSib := SquaredEuclidean(cents[i], cents[s2]) < SquaredEuclidean(cents[i], cents[s1])
		if i == s1 {
			toSib = false
		}
		if i == s2 {
			toSib = true
		}
		if toSib {
			sibE = append(sibE, n.entries[i])
			if !n.leaf {
				sibC = append(sibC, n.children[i])
			}
		} else {
			keepE = append(keepE, n.entries[i])
			if !n.leaf {
				keepC = append(keepC, n.children[i])
			}
		}
	}
	n.entries, sib.entries = keepE, sibE
	if !n.leaf {
		n.children, sib.children = keepC, sibC
	}
	return sib
}

// rebuild re-inserts all leaf CFs into a fresh tree with a larger
// threshold.
func (t *cfTree) rebuild(newThreshold float64) *cfTree {
	leaves := t.leafCFs(nil)
	nt := &cfTree{
		dims: t.dims, threshold: newThreshold,
		branching: t.branching, leafEntries: t.leafEntries,
	}
	for _, e := range leaves {
		nt.insertCF(e)
	}
	return nt
}

// leafCFs collects every leaf entry.
func (t *cfTree) leafCFs(dst []*cf) []*cf {
	var walk func(n *cfNode)
	walk = func(n *cfNode) {
		if n == nil {
			return
		}
		if n.leaf {
			dst = append(dst, n.entries...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return dst
}

// weightedKMeans runs Lloyd's algorithm over CF centroids weighted by
// their point counts.
func weightedKMeans(cfs []*cf, k, dims int) ([][]float64, error) {
	if len(cfs) < k {
		return nil, fmt.Errorf("%w: %d CF entries for k=%d", ErrBadK, len(cfs), k)
	}
	pts := make([][]float64, len(cfs))
	w := make([]float64, len(cfs))
	for i, c := range cfs {
		pts[i] = c.centroid(make([]float64, dims))
		w[i] = c.n
	}
	// Farthest-first seeding over the CF centroids, weighted toward heavy
	// entries for the first pick: deterministic and robust on the
	// well-separated benchmark mixtures.
	centers := make([][]float64, 0, k)
	first := 0
	for i := range w {
		if w[i] > w[first] {
			first = i
		}
	}
	centers = append(centers, append([]float64(nil), pts[first]...))
	minD := make([]float64, len(pts))
	for i := range pts {
		minD[i] = SquaredEuclidean(pts[i], centers[0])
	}
	for len(centers) < k {
		far := 0
		for i := range pts {
			if minD[i] > minD[far] {
				far = i
			}
		}
		centers = append(centers, append([]float64(nil), pts[far]...))
		for i := range pts {
			if d := SquaredEuclidean(pts[i], centers[len(centers)-1]); d < minD[i] {
				minD[i] = d
			}
		}
	}
	assign := make([]int, len(pts))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := SquaredEuclidean(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([][]float64, k)
		counts := make([]float64, k)
		for i := range sums {
			sums[i] = make([]float64, dims)
		}
		for i, p := range pts {
			c := assign[i]
			counts[c] += w[i]
			for d := range p {
				sums[c][d] += p[d] * w[i]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			for d := range centers[c] {
				centers[c][d] = sums[c][d] / counts[c]
			}
		}
		if !changed {
			break
		}
	}
	return centers, nil
}
