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
// Build is the one constructor of a counting pass — it owns the tree's
// shape and numbers entries in candidate order — and the local scans and
// the dist worker (and so every full run) all build through it. After
// Build the tree is read-only: each worker counts its transactions into a
// private CountBuffer indexed by entry id with the trimmed scan
// (CountAllInto), and the buffers fold back with plain integer adds —
// bit-identical to a serial scan in any merge order.
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

	// live[item] = 1 if some candidate names item, maintained by Insert
	// for the trimmed scan (CountAllInto). It reaches only as far as the
	// largest such item below maxLive.
	live []uint8

	// own is CountTransaction's buffer, grown to the entries by Counts.
	own CountBuffer
}

// maxLive bounds the live table, so a candidate naming an enormous item
// (they arrive off the wire) costs no memory: items from maxLive up are
// never trimmed.
const maxLive = 1 << 20

type node struct {
	children []*node  // non-nil for interior nodes
	entries  []*Entry // leaf payload
}

// Defaults match the spirit of the paper's implementation. Build's fanout
// ranges from DefaultFanout to maxFanout.
const (
	DefaultFanout  = 16
	DefaultMaxLeaf = 32
	maxFanout      = 4096
)

// Errors returned by the tree.
var (
	ErrWrongLength = errors.New("hashtree: itemset length does not match tree")
	ErrBadParams   = errors.New("hashtree: candidate length, fanout and leaf capacity must be positive")
)

// Build returns the hash tree of one counting pass over cands, distinct
// sorted itemsets of length k, inserted in order so that entry id i is
// cands[i]. The shape is the tree's own — a fanout from the candidate
// count (adaptiveFanout) and DefaultMaxLeaf — so no caller, the dist
// worker's wire input included, can make it allocate more than the
// candidates. k < 1 is ErrBadParams, a candidate of another length
// ErrWrongLength.
func Build(k int, cands []transactions.Itemset) (*Tree, error) {
	t, err := newWithParams(k, adaptiveFanout(len(cands), k, DefaultMaxLeaf), DefaultMaxLeaf)
	if err != nil {
		return nil, err
	}
	for _, c := range cands {
		if _, err := t.Insert(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// adaptiveFanout returns the smallest power of two f with f^k ≥
// nCands/maxLeaf, clamped to [DefaultFanout, maxFanout]: leaves at depth k
// cannot split further, so a fixed small fanout would degenerate into long
// leaf scans for large candidate sets.
func adaptiveFanout(nCands, k, maxLeaf int) int {
	cells := nCands/maxLeaf + 1
	f := DefaultFanout
	for f < maxFanout {
		// f^k >= cells?
		prod := 1
		for i := 0; i < k && prod < cells; i++ {
			prod *= f
		}
		if prod >= cells {
			break
		}
		f *= 2
	}
	return f
}

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
// transaction, untrimmed, through the same traversal as the buffered scan.
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

// CountBuffer holds one worker's private support counters for the
// concurrent counting mode: counts and duplicate-visit guards indexed by
// entry id. Workers traverse the tree read-only and write only into their
// own buffer, so any number of them may count disjoint transaction shards
// concurrently; the buffers are merged serially after the scan
// (count-distribution). All candidate insertions must happen before the
// first concurrent count — Build makes sure of it. Counts are int32, the
// width of every support counter (see transactions.CountItems).
type CountBuffer struct {
	Counts []int32
	seen   []int // tid+1 of the last transaction counted per entry; 0 = none

	row transactions.Itemset // CountAllInto's scratch: the current transaction, trimmed
}

// NewCountBuffer returns a zeroed buffer sized for the tree's entries.
func (t *Tree) NewCountBuffer() *CountBuffer {
	return &CountBuffer{Counts: make([]int32, t.size), seen: make([]int, t.size)}
}

// countInto is the paper's recursive traversal: at an interior node of
// depth d, hash each remaining transaction item and descend; at a leaf,
// verify containment per candidate. Items before start are already
// consumed by the path, and counts and duplicate guards go into buf, so
// the tree is only read and concurrent calls with distinct buffers are
// race-free. It must stay allocation-free — it runs once per transaction
// per pass — and allocbound holds it to zero provable allocation sites.
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
	// Need k-depth more items; stop early when too few remain.
	for i := start; i <= len(tx)-(t.k-depth); i++ {
		child := n.children[tx[i]%t.fanout]
		if child != nil {
			t.countInto(child, tx, i+1, depth+1, tid, buf)
		}
	}
}

// CountAllInto is the pass-k scan: it counts every transaction of txs into
// buf, with tid0+i as the i-th transaction's dedup tid, and is the one
// loop the local scans and the dist worker (and so every full run)
// run. Each transaction is first trimmed to the items that occur in some
// candidate (the transaction trimming of Park, Chen & Yu's DHP; the tree
// marks them as candidates are inserted), and rows left with fewer than k
// items never reach the tree. Counts equal those of CountTransaction on
// every transaction, because a candidate is a subset of tx exactly when it
// is a subset of tx's live items; what changes is that the traversal
// hashes and compares only items a candidate could match. Transactions
// must be sorted ascending, as everywhere in this package. A scan that
// must stay cancellable calls it once per stride of transactions; the
// scratch row lives in buf, so later calls allocate nothing.
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
