// Package tree implements ID3/C4.5-style decision-tree induction over
// dataset.Table: information gain, gain ratio and Gini split criteria,
// multiway splits on categorical attributes, binary threshold splits on
// numeric attributes, C4.5 pessimistic pruning, reduced-error pruning, and
// extraction of the tree as a rule set. Induction sorts each numeric
// attribute once per node, so training costs O(depth·rows·attrs·log rows)
// in the worst case — the growth curve EXP-T3 measures.
package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Criterion selects the split-quality measure.
type Criterion int

const (
	// InfoGain is ID3's entropy reduction.
	InfoGain Criterion = iota
	// GainRatio is C4.5's information gain normalised by split entropy.
	GainRatio
	// Gini is CART's impurity reduction.
	Gini
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case InfoGain:
		return "infogain"
	case GainRatio:
		return "gainratio"
	case Gini:
		return "gini"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Config controls induction.
type Config struct {
	Criterion Criterion
	// MaxDepth limits tree depth; zero means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of training rows in a leaf; zero
	// means 1.
	MinLeaf int
	// MinGain is the smallest split quality worth splitting on.
	MinGain float64
}

// Node is a tree node. Leaves have Attr == -1.
type Node struct {
	// Attr is the splitting attribute column, or -1 for a leaf.
	Attr int
	// Threshold is the numeric split point (branch 0: <=, branch 1: >).
	Threshold float64
	// Children holds one child per categorical value, or two for numeric.
	Children []*Node
	// MajorityChild receives rows whose split attribute is missing.
	MajorityChild int

	// Class is the majority class at this node (the prediction if leaf).
	Class int
	// ClassCounts is the training class distribution at this node.
	ClassCounts []int
	// N is the number of training rows that reached this node.
	N int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Attr < 0 }

// Errors returned by Build.
var (
	ErrNoClass   = errors.New("tree: table has no categorical class attribute")
	ErrNoRows    = errors.New("tree: empty training table")
	ErrBadConfig = errors.New("tree: invalid configuration")
)

// Tree is a trained decision tree bound to its training schema.
type Tree struct {
	Root   *Node
	Attrs  []dataset.Attribute
	Class  int
	Config Config
}

// Build induces a tree from the table.
func Build(t *dataset.Table, cfg Config) (*Tree, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	if t.NumClasses() < 1 {
		return nil, ErrNoClass
	}
	if cfg.MinLeaf < 0 || cfg.MaxDepth < 0 || cfg.MinGain < 0 {
		return nil, ErrBadConfig
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	b := &builder{t: t, cfg: cfg, nClasses: t.NumClasses()}
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	root := b.build(rows, 1)
	return &Tree{Root: root, Attrs: t.Attributes, Class: t.ClassIndex, Config: cfg}, nil
}

type builder struct {
	t        *dataset.Table
	cfg      Config
	nClasses int
}

// classCounts tallies class frequencies of the rows.
func (b *builder) classCounts(rows []int) []int {
	counts := make([]int, b.nClasses)
	for _, r := range rows {
		counts[b.t.Class(r)]++
	}
	return counts
}

func majority(counts []int) int {
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

func isPure(counts []int) bool {
	nonZero := 0
	for _, n := range counts {
		if n > 0 {
			nonZero++
		}
	}
	return nonZero <= 1
}

// build recursively grows the tree.
func (b *builder) build(rows []int, depth int) *Node {
	counts := b.classCounts(rows)
	node := &Node{
		Attr:        -1,
		Class:       majority(counts),
		ClassCounts: counts,
		N:           len(rows),
	}
	if isPure(counts) || len(rows) < 2*b.cfg.MinLeaf {
		return node
	}
	if b.cfg.MaxDepth > 0 && depth > b.cfg.MaxDepth {
		return node
	}
	attr, threshold, gain, parts := b.bestSplit(rows, counts)
	if attr < 0 || gain <= b.cfg.MinGain {
		return node
	}
	node.Attr = attr
	node.Threshold = threshold
	node.Children = make([]*Node, len(parts))
	bestChild, bestN := 0, -1
	for i, part := range parts {
		if len(part) == 0 {
			// Empty branch: a leaf predicting the parent majority.
			node.Children[i] = &Node{
				Attr:        -1,
				Class:       node.Class,
				ClassCounts: make([]int, b.nClasses),
			}
			continue
		}
		node.Children[i] = b.build(part, depth+1)
		if len(part) > bestN {
			bestChild, bestN = i, len(part)
		}
	}
	node.MajorityChild = bestChild
	return node
}

// bestSplit searches every attribute for the best split of rows, returning
// the attribute, numeric threshold (if numeric), quality, and the row
// partition. attr -1 means no valid split.
func (b *builder) bestSplit(rows []int, parentCounts []int) (attr int, threshold, gain float64, parts [][]int) {
	attr = -1
	parentImp := b.impurity(parentCounts, len(rows))
	for j := range b.t.Attributes {
		if j == b.t.ClassIndex {
			continue
		}
		var g, th float64
		var p [][]int
		if b.t.Attributes[j].Kind == dataset.Categorical {
			g, p = b.categoricalSplit(rows, j, parentImp)
		} else {
			g, th, p = b.numericSplit(rows, j, parentImp)
		}
		if p != nil && g > gain {
			attr, threshold, gain, parts = j, th, g, p
		}
	}
	return attr, threshold, gain, parts
}

// impurity computes entropy (InfoGain/GainRatio) or Gini impurity.
func (b *builder) impurity(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	switch b.cfg.Criterion {
	case Gini:
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	default:
		e := 0.0
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			e -= p * math.Log2(p)
		}
		return e
	}
}

// categoricalSplit evaluates the multiway split on attribute j. Rows with
// missing values are excluded from the gain computation and routed to the
// majority branch at prediction time.
func (b *builder) categoricalSplit(rows []int, j int, parentImp float64) (float64, [][]int) {
	nValues := len(b.t.Attributes[j].Values)
	if nValues < 2 {
		return 0, nil
	}
	parts := make([][]int, nValues)
	known := 0
	for _, r := range rows {
		v := b.t.Rows[r][j]
		if dataset.IsMissing(v) {
			continue
		}
		parts[int(v)] = append(parts[int(v)], r)
		known++
	}
	if known == 0 {
		return 0, nil
	}
	nonEmpty := 0
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return 0, nil
	}
	for _, p := range parts {
		if len(p) > 0 && len(p) < b.cfg.MinLeaf {
			return 0, nil
		}
	}
	childImp := 0.0
	splitInfo := 0.0
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		w := float64(len(p)) / float64(known)
		childImp += w * b.impurity(b.classCounts(p), len(p))
		splitInfo -= w * math.Log2(w)
	}
	g := parentImp - childImp
	if b.cfg.Criterion == GainRatio {
		if splitInfo <= 0 {
			return 0, nil
		}
		g /= splitInfo
	}
	// Penalise gain by the known fraction, C4.5's missing-value discount.
	g *= float64(known) / float64(len(rows))
	return g, parts
}

// valClass pairs an attribute value with a row's class for split sweeps.
type valClass struct {
	v float64
	c int
}

// numericSplit finds the best binary threshold on attribute j by a single
// sorted sweep with incremental class counts.
func (b *builder) numericSplit(rows []int, j int, parentImp float64) (float64, float64, [][]int) {
	vals := make([]valClass, 0, len(rows))
	for _, r := range rows {
		v := b.t.Rows[r][j]
		if dataset.IsMissing(v) {
			continue
		}
		vals = append(vals, valClass{v: v, c: b.t.Class(r)})
	}
	if len(vals) < 2*b.cfg.MinLeaf {
		return 0, 0, nil
	}
	sort.Slice(vals, func(i, k int) bool { return vals[i].v < vals[k].v })
	known := len(vals)
	left := make([]int, b.nClasses)
	right := b.countsOf(vals)
	bestGain, bestTh := -1.0, 0.0
	nLeft := 0
	for i := 0; i < len(vals)-1; i++ {
		left[vals[i].c]++
		right[vals[i].c]--
		nLeft++
		if vals[i].v == vals[i+1].v {
			continue
		}
		if nLeft < b.cfg.MinLeaf || known-nLeft < b.cfg.MinLeaf {
			continue
		}
		wl := float64(nLeft) / float64(known)
		wr := 1 - wl
		childImp := wl*b.impurity(left, nLeft) + wr*b.impurity(right, known-nLeft)
		g := parentImp - childImp
		if b.cfg.Criterion == GainRatio {
			si := -wl*math.Log2(wl) - wr*math.Log2(wr)
			if si <= 0 {
				continue
			}
			g /= si
		}
		if g > bestGain {
			bestGain = g
			bestTh = (vals[i].v + vals[i+1].v) / 2
		}
	}
	if bestGain < 0 {
		return 0, 0, nil
	}
	parts := make([][]int, 2)
	for _, r := range rows {
		v := b.t.Rows[r][j]
		if dataset.IsMissing(v) {
			continue
		}
		if v <= bestTh {
			parts[0] = append(parts[0], r)
		} else {
			parts[1] = append(parts[1], r)
		}
	}
	bestGain *= float64(known) / float64(len(rows))
	return bestGain, bestTh, parts
}

func (b *builder) countsOf(vals []valClass) []int {
	counts := make([]int, b.nClasses)
	for _, x := range vals {
		counts[x.c]++
	}
	return counts
}

// Predict returns the predicted class index for a row laid out like the
// training schema.
func (tr *Tree) Predict(row []float64) int {
	n := tr.Root
	for !n.IsLeaf() {
		v := row[n.Attr]
		var next *Node
		if dataset.IsMissing(v) {
			next = n.Children[n.MajorityChild]
		} else if tr.Attrs[n.Attr].Kind == dataset.Categorical {
			idx := int(v)
			if idx < 0 || idx >= len(n.Children) {
				next = n.Children[n.MajorityChild]
			} else {
				next = n.Children[idx]
			}
		} else {
			if v <= n.Threshold {
				next = n.Children[0]
			} else {
				next = n.Children[1]
			}
		}
		n = next
	}
	return n.Class
}

// Size returns the number of nodes.
func (tr *Tree) Size() int { return countNodes(tr.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// String renders an indented view of the tree.
func (tr *Tree) String() string {
	var sb strings.Builder
	tr.render(&sb, tr.Root, 0, "")
	return sb.String()
}

func (tr *Tree) render(sb *strings.Builder, n *Node, depth int, edge string) {
	indent := strings.Repeat("  ", depth)
	classAttr := tr.Attrs[tr.Class]
	if edge != "" {
		fmt.Fprintf(sb, "%s%s\n", indent, edge)
		indent += "  "
		depth++
	}
	if n.IsLeaf() {
		label := fmt.Sprintf("%d", n.Class)
		if n.Class < len(classAttr.Values) {
			label = classAttr.Values[n.Class]
		}
		fmt.Fprintf(sb, "%s-> %s %v (n=%d)\n", indent, label, n.ClassCounts, n.N)
		return
	}
	a := tr.Attrs[n.Attr]
	if a.Kind == dataset.Categorical {
		for vi, child := range n.Children {
			tr.render(sb, child, depth, fmt.Sprintf("%s = %s:", a.Name, a.Values[vi]))
		}
	} else {
		tr.render(sb, n.Children[0], depth, fmt.Sprintf("%s <= %g:", a.Name, n.Threshold))
		tr.render(sb, n.Children[1], depth, fmt.Sprintf("%s > %g:", a.Name, n.Threshold))
	}
}
