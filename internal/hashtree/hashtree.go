// Package hashtree implements the candidate hash tree of Agrawal & Srikant
// (VLDB'94 §2.1.2), the data structure Apriori uses to count, for every
// transaction, which of the current candidate k-itemsets it contains,
// without testing every candidate.
//
// Interior nodes hash the item at their depth into a fixed fanout of
// children; leaves store candidate itemsets with their support counters.
// A leaf splits into an interior node when it exceeds the leaf capacity,
// unless it is already at depth k (where further splitting cannot separate
// candidates). Counting a transaction of t items visits at most C(t, k)
// root-to-leaf paths but in practice far fewer, since subtrees with no
// matching candidates are never entered — the structure that keeps a pass
// over |D| transactions near-linear instead of |D|·|C_k|.
//
// No mining path counts with it: every pass k >= 3 — the local
// scans, the dist workers, the reference engines and the incremental
// maintainer — counts in tid-bitset blocks (transactions.Layout and
// CountTids). The tree stays for the benchmark's hashtree layer probe,
// which inserts one candidate at a time (New, Insert) and counts one
// transaction at a time (CountTransaction).
package hashtree

import (
	"errors"

	"repro/internal/transactions"
)

// Entry is a candidate itemset stored in the tree.
type Entry struct {
	Items transactions.Itemset
	id    int // insertion rank: the entry's index in every count buffer
}

// Tree is a hash tree over candidate itemsets of a single length k.
type Tree struct {
	k       int
	fanout  int
	maxLeaf int
	root    *node
	size    int

	// own is CountTransaction's buffer, grown to the entries by Counts.
	own countBuffer
}

type node struct {
	children []*node  // non-nil for interior nodes
	entries  []*Entry // leaf payload
}

// Defaults match the spirit of the paper's implementation.
const (
	DefaultFanout  = 16
	DefaultMaxLeaf = 32
)

// Errors returned by the tree.
var (
	ErrWrongLength = errors.New("hashtree: itemset length does not match tree")
	ErrBadParams   = errors.New("hashtree: candidate length, fanout and leaf capacity must be positive")
)

// New returns an empty hash tree for candidates of length k with the
// default shape, for callers that insert one candidate at a time.
func New(k int) *Tree {
	t, _ := newWithParams(k, DefaultFanout, DefaultMaxLeaf)
	return t
}

// newWithParams returns an empty hash tree with an explicit shape, which
// the tests vary to force splits and hash collisions.
func newWithParams(k, fanout, maxLeaf int) (*Tree, error) {
	if fanout < 1 || maxLeaf < 1 || k < 1 {
		return nil, ErrBadParams
	}
	return &Tree{k: k, fanout: fanout, maxLeaf: maxLeaf, root: &node{}}, nil
}

// Insert adds a candidate itemset with a zero count. The caller must not
// insert duplicates; Apriori's candidate generation never produces them.
func (t *Tree) Insert(items transactions.Itemset) (*Entry, error) {
	if len(items) != t.k {
		return nil, ErrWrongLength
	}
	e := &Entry{Items: items, id: t.size}
	t.insert(t.root, e, 0)
	t.size++
	return e, nil
}

func (t *Tree) insert(n *node, e *Entry, depth int) {
	if n.children != nil {
		h := e.Items[depth] % t.fanout
		child := n.children[h]
		if child == nil {
			child = &node{}
			n.children[h] = child
		}
		t.insert(child, e, depth+1)
		return
	}
	n.entries = append(n.entries, e)
	// Split an overfull leaf unless hashing deeper cannot discriminate.
	if len(n.entries) > t.maxLeaf && depth < t.k {
		entries := n.entries
		n.entries = nil
		n.children = make([]*node, t.fanout)
		for _, old := range entries {
			h := old.Items[depth] % t.fanout
			child := n.children[h]
			if child == nil {
				child = &node{}
				n.children[h] = child
			}
			t.insert(child, old, depth+1)
		}
	}
}

// CountTransaction adds tx to the tree's own counts (Counts): one
// transaction through the paper's traversal.
// tid must be distinct per transaction (and non-negative); it guards
// against double counting when a leaf is reachable along several hash
// paths.
func (t *Tree) CountTransaction(tx transactions.Itemset, tid int) {
	t.Counts() // size the own buffer to the entries inserted so far
	if len(tx) >= t.k {
		t.countInto(t.root, tx, 0, 0, tid, &t.own)
	}
}

// Counts returns the supports CountTransaction has counted, by entry id.
func (t *Tree) Counts() []int32 {
	if n := t.size - len(t.own.Counts); n > 0 {
		t.own.Counts = append(t.own.Counts, make([]int32, n)...)
		t.own.seen = append(t.own.seen, make([]int, n)...)
	}
	return t.own.Counts
}

// countBuffer holds the tree's support counters and duplicate-visit
// guards, indexed by entry id. Counts are int32, the width of every
// support counter (see transactions.CountItems).
type countBuffer struct {
	Counts []int32
	seen   []int // tid+1 of the last transaction counted per entry; 0 = none
}

// countInto is the paper's recursive traversal: at an interior node of
// depth d, hash each remaining transaction item and descend; at a leaf,
// verify containment per candidate. Items before start are already
// consumed by the path, and counts and duplicate guards go into buf. It
// must stay allocation-free — it runs once per transaction — and
// allocbound holds it to zero provable allocation sites.
//
//invcheck:hotpath
func (t *Tree) countInto(n *node, tx transactions.Itemset, start, depth, tid int, buf *countBuffer) {
	if n.children == nil {
		for _, e := range n.entries {
			if buf.seen[e.id] != tid+1 && tx.ContainsAll(e.Items) {
				buf.Counts[e.id]++
				buf.seen[e.id] = tid + 1
			}
		}
		return
	}
	// Need k-depth more items; stop early when too few remain.
	for i := start; i <= len(tx)-(t.k-depth); i++ {
		child := n.children[tx[i]%t.fanout]
		if child != nil {
			t.countInto(child, tx, i+1, depth+1, tid, buf)
		}
	}
}
