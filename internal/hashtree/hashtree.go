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
// The tree participates in the engine's shard/count/merge contract through
// CountBuffer: after all inserts, the tree is read-only, each worker (or
// each shard of the incremental backend's cache) counts into a private
// buffer indexed by entry id, and Merge folds buffers back with plain
// integer adds — bit-identical to a serial scan in any merge order.
package hashtree

import (
	"errors"

	"repro/internal/transactions"
)

// Entry is a candidate itemset with its running support count.
type Entry struct {
	Items transactions.Itemset
	Count int

	// id is the entry's insertion rank, the index into per-worker count
	// buffers in the concurrent counting mode.
	id int

	// seen guards against counting the same transaction twice when the
	// traversal reaches the same leaf along different hash paths. It stores
	// tid+1 so that the zero value means "no transaction seen yet" — storing
	// the tid directly would make a zero-valued Entry silently skip tid 0.
	seen int
}

// ID returns the entry's insertion rank, in [0, Tree.Len()).
func (e *Entry) ID() int { return e.id }

// Tree is a hash tree over candidate itemsets of a single length k.
type Tree struct {
	k       int
	fanout  int
	maxLeaf int
	root    *node
	size    int
	byID    []*Entry // entries in insertion order, indexed by Entry.id

	// live[item] = 1 if some candidate names item, maintained by Insert
	// for the trimmed scan (CountAllInto). It reaches only as far as the
	// largest such item below maxLive.
	live []uint8
}

// maxLive bounds the live table, so a candidate naming an enormous item
// (they arrive off the wire) costs no memory: items from maxLive up are
// never trimmed.
const maxLive = 1 << 20

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
	ErrBadParams   = errors.New("hashtree: fanout and leaf capacity must be positive")
)

// New returns an empty hash tree for candidates of length k.
func New(k int) *Tree {
	t, _ := NewWithParams(k, DefaultFanout, DefaultMaxLeaf)
	return t
}

// NewWithParams returns an empty hash tree with explicit fanout and leaf
// capacity, for the ablation benchmarks.
func NewWithParams(k, fanout, maxLeaf int) (*Tree, error) {
	if fanout < 1 || maxLeaf < 1 || k < 1 {
		return nil, ErrBadParams
	}
	return &Tree{k: k, fanout: fanout, maxLeaf: maxLeaf, root: &node{}}, nil
}

// Len returns the number of candidates stored.
func (t *Tree) Len() int { return t.size }

// K returns the candidate length the tree was built for.
func (t *Tree) K() int { return t.k }

// Insert adds a candidate itemset with a zero count. The caller must not
// insert duplicates; Apriori's candidate generation never produces them.
func (t *Tree) Insert(items transactions.Itemset) (*Entry, error) {
	if len(items) != t.k {
		return nil, ErrWrongLength
	}
	e := &Entry{Items: items, id: t.size}
	for _, item := range items {
		if item >= maxLive {
			break
		}
		if item >= len(t.live) {
			t.live = append(t.live, make([]uint8, item+1-len(t.live))...)
		}
		t.live[item] = 1
	}
	t.insert(t.root, e, 0)
	t.byID = append(t.byID, e)
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

// CountTransaction increments the count of every candidate that is a
// subset of tx, using the paper's recursive traversal: at an interior node
// of depth d, hash each remaining transaction item and descend; at a leaf,
// verify containment per candidate. tid must be distinct per transaction
// (and non-negative); it guards against double counting when a leaf is
// reachable along several hash paths.
func (t *Tree) CountTransaction(tx transactions.Itemset, tid int) {
	if len(tx) < t.k {
		return
	}
	t.count(t.root, tx, 0, 0, tid)
}

// count descends from n; items before start are already consumed by the
// path, depth is the node's depth in the tree. The recursion is
// allocation-free: support counting runs once per transaction per pass,
// and allocbound holds it to zero provable allocation sites.
//
//invcheck:hotpath
func (t *Tree) count(n *node, tx transactions.Itemset, start, depth, tid int) {
	if n.children == nil {
		for _, e := range n.entries {
			if e.seen != tid+1 && tx.ContainsAll(e.Items) {
				e.Count++
				e.seen = tid + 1
			}
		}
		return
	}
	// Need k-depth more items; stop early when too few remain.
	for i := start; i <= len(tx)-(t.k-depth); i++ {
		child := n.children[tx[i]%t.fanout]
		if child != nil {
			t.count(child, tx, i+1, depth+1, tid)
		}
	}
}

// CountBuffer holds one worker's private support counters for the
// concurrent counting mode: counts and duplicate-visit guards indexed by
// entry id. Workers traverse the tree read-only and write only into their
// own buffer, so any number of them may count disjoint transaction shards
// concurrently; the buffers are merged serially after the scan
// (count-distribution). All candidate insertions must happen before the
// first concurrent count.
type CountBuffer struct {
	Counts []int
	seen   []int // tid+1 of the last transaction counted per entry; 0 = none

	row transactions.Itemset // CountAllInto's scratch: the current transaction, trimmed
}

// NewCountBuffer returns a zeroed buffer sized for the tree's entries.
func (t *Tree) NewCountBuffer() *CountBuffer {
	return &CountBuffer{Counts: make([]int, t.size), seen: make([]int, t.size)}
}

// CountTransactionInto is CountTransaction for the concurrent mode: counts
// and duplicate guards go into buf instead of the shared entries. The tree
// itself is only read, so concurrent calls with distinct buffers are
// race-free.
func (t *Tree) CountTransactionInto(tx transactions.Itemset, tid int, buf *CountBuffer) {
	if len(tx) < t.k {
		return
	}
	t.countInto(t.root, tx, 0, 0, tid, buf)
}

// countInto is count for the concurrent mode; like count it must stay
// allocation-free, since it runs once per transaction per worker.
//
//invcheck:hotpath
func (t *Tree) countInto(n *node, tx transactions.Itemset, start, depth, tid int, buf *CountBuffer) {
	if n.children == nil {
		for _, e := range n.entries {
			if buf.seen[e.id] != tid+1 && tx.ContainsAll(e.Items) {
				buf.Counts[e.id]++
				buf.seen[e.id] = tid + 1
			}
		}
		return
	}
	for i := start; i <= len(tx)-(t.k-depth); i++ {
		child := n.children[tx[i]%t.fanout]
		if child != nil {
			t.countInto(child, tx, i+1, depth+1, tid, buf)
		}
	}
}

// CountAllInto is the pass-k scan: it counts every transaction of txs into
// buf, with tid0+i as the i-th transaction's dedup tid, and is the one
// loop the local scans and the dist worker both run. Each transaction is
// first trimmed to the items that occur in some candidate (the transaction
// trimming of Park, Chen & Yu's DHP; the tree marks them as candidates are
// inserted), and rows left with fewer than k items never reach the tree.
// Counts equal those of calling CountTransactionInto on every transaction,
// because a candidate is a subset of tx exactly when it is a subset of
// tx's live items; what changes is that the traversal hashes and compares
// only items a candidate could match. Transactions must be sorted
// ascending, as everywhere in this package. A scan that must stay
// cancellable calls it once per stride of transactions; the scratch row
// lives in buf, so later calls allocate nothing.
//
//invcheck:hotpath
func (t *Tree) CountAllInto(txs []transactions.Itemset, tid0 int, buf *CountBuffer) {
	// Size the scratch row before the counting loop, not in it.
	longest := 0
	for _, tx := range txs {
		longest = max(longest, len(tx))
	}
	if cap(buf.row) < longest {
		buf.row = make(transactions.Itemset, longest)
	}
	row, live := buf.row[:longest], t.live
	for off, tx := range txs {
		n := 0
		for _, item := range tx {
			row[n] = item
			if uint(item) < uint(len(live)) {
				n += int(live[item])
			} else if item >= maxLive {
				n++
			}
		}
		if n >= t.k {
			t.countInto(t.root, row[:n], 0, 0, tid0+off, buf)
		}
	}
}

// Merge folds a worker buffer's counts into the shared entry counts. Call
// it from a single goroutine after all concurrent counting has finished.
//
//invcheck:hotpath
func (t *Tree) Merge(buf *CountBuffer) {
	for id, c := range buf.Counts {
		t.byID[id].Count += c
	}
}

// EntriesByID returns the stored entries in insertion order (deterministic,
// unlike Entries). The slice is shared with the tree; do not modify it.
func (t *Tree) EntriesByID() []*Entry { return t.byID }

// Entries appends all stored entries to dst and returns it; iteration
// order is unspecified.
func (t *Tree) Entries(dst []*Entry) []*Entry {
	return collect(t.root, dst)
}

func collect(n *node, dst []*Entry) []*Entry {
	if n == nil {
		return dst
	}
	if n.children == nil {
		return append(dst, n.entries...)
	}
	for _, c := range n.children {
		dst = collect(c, dst)
	}
	return dst
}
