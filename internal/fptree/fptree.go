// Package fptree implements the pattern-growth substrate of the FP-growth
// miner (Han, Pei & Yin, SIGMOD 2000 — the candidate-free successor of the
// level-wise miners this repo reproduces from the SIGMOD'96 tutorial): a
// pooled-node FP-tree with header tables over support-descending item
// ranks.
//
// The package obeys the repo-wide shard/count/merge contract in its
// pattern-growth form, build/project-over-forest:
//
//   - Build: a tree is constructed per contiguous database shard by
//     sort-then-scan. Each transaction is filtered to its frequent items
//     and rank-sorted into one flat buffer, the transactions are ordered
//     lexicographically, and the common-prefix length of each path against
//     its predecessor gives the exact node count — so the arena is
//     allocated once and nodes are laid down in depth-first order with no
//     child lookup (nodes live in pooled slices, links are int32 indices —
//     no per-node allocations, and a node's ancestors sit just before it
//     in memory). A prefix tree is canonical: the tree holds the same
//     nodes and counts whatever order the transactions arrive in.
//   - Project over a Forest: the shard trees are never merged. They form a
//     Forest under one shared *Ranks; a rank's support is the sum of its
//     totals over the forest, and projecting a rank walks its header chain
//     in every tree into one pruned conditional tree, using a Scratch that
//     recycles count arrays, the prefix-path buffer and whole trees across
//     the recursion. A conditional count is a sum of node counts over
//     header chains and integer addition is commutative, so it does not
//     matter which tree of the forest a chain node lives in: every
//     projection is byte-identical to projecting one tree built over the
//     whole database, regardless of shard count or shard order.
//     Projection never rescans the database; every conditional count is
//     an exact support.
//
// A node is stored in two parallel arrays, split by how the hot loops
// read it. The upward walk of projection — most of a pattern-growth mine —
// reads only a node's parent and rank, one dependent load per step, so
// those two int32s live alone in an 8-byte hot entry (up): eight ancestors
// per cache line instead of two. The child, sibling and header-chain
// links and the int32 count form the 16-byte cold node, which insertion
// and the per-chain-node count read. Counts are int32 because a store
// holds at most math.MaxInt32 transactions
// (transactions.ErrTooManyTransactions), and a node counts a subset of
// them.
//
// Merge (serial path-wise addition of one tree into another) is the
// reference the tests hold the forest to — "forest ≡ merged" — and is not
// on any mining path.
//
// internal/assoc's FPGrowth drives the recursion (single-path shortcut,
// per-item fan-out across workers) and assembles the Result.
package fptree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/transactions"
)

// Ranks fixes the item order every FP-tree over one database shares:
// frequent items get dense ranks 0,1,2,… in support-descending order
// (ties broken by ascending item id, so the order is deterministic).
// Transactions are inserted most-frequent-first, which maximises prefix
// sharing — the compression argument of the FP-tree paper.
type Ranks struct {
	// OfItem maps an item id to its rank; -1 marks infrequent items.
	OfItem []int32
	// Items maps a rank back to its item id.
	Items []int32
	// Counts holds each rank's global support, descending.
	Counts []int
}

// NewRanks builds the rank table from per-item support counts (indexed by
// item id, as produced by a pass-1 scan, at either counter width) and the
// absolute support floor.
func NewRanks[C int | int32](counts []C, minCount int) *Ranks {
	r := &Ranks{OfItem: make([]int32, len(counts))}
	for i := range r.OfItem {
		r.OfItem[i] = -1
	}
	order := make([]int32, 0, len(counts))
	for item, c := range counts {
		if int(c) >= minCount {
			order = append(order, int32(item))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	r.Items = order
	r.Counts = make([]int, len(order))
	for rk, item := range order {
		r.OfItem[item] = int32(rk)
		r.Counts[rk] = int(counts[item])
	}
	return r
}

// Len returns the number of ranked (frequent) items.
func (r *Ranks) Len() int { return len(r.Items) }

// upLink is the hot half of an FP-tree node: the two fields the upward walk
// of projection reads, packed into 8 bytes (see the package doc).
type upLink struct {
	parent int32 // parent node, 0 for depth-1 nodes
	rank   int32 // item rank; unused on the root
}

// node is the cold half of an FP-tree node, 16 bytes. Links are indices
// into the owning tree's node pool; 0 is the null link (node 0 is the
// root, which is never a child, sibling or header-chain member).
type node struct {
	child   int32 // first child, 0 if leaf
	sibling int32 // next sibling in the parent's child list
	next    int32 // next node of the same rank (header chain)
	count   int32 // transactions whose rank path runs through this node
}

// Tree is a pooled-node FP-tree: node i is up[i] and nodes[i], the header
// table chains all nodes of a rank, and totals accumulates each rank's
// support within the tree. All trees over the same database share one
// *Ranks.
type Tree struct {
	ranks  *Ranks
	up     []upLink // hot half of each node; up[0] is the root's
	nodes  []node   // cold half of each node; nodes[0] is the root
	heads  []int32  // rank -> first node of the header chain, 0 if absent
	totals []int    // rank -> summed node counts (the rank's support here)
	// present lists the ranks with nonzero totals (first-touch order until
	// Present sorts it), so mining a conditional tree iterates only the few
	// ranks of its pattern base instead of the whole rank universe.
	present []int32
	// rootIdx maps rank -> depth-1 child of the root (0 if absent). The
	// root is the one node whose child list grows towards |L1| siblings —
	// every transaction starts an insert there — so it gets a direct
	// index while deeper nodes keep the short sibling scan.
	rootIdx []int32
}

// New returns an empty tree over the given rank table.
func New(r *Ranks) *Tree { return newTree(r, 64) }

// newTree returns an empty tree whose arena holds nodeCap nodes (the root
// included) before it has to grow.
func newTree(r *Ranks, nodeCap int) *Tree {
	return &Tree{
		ranks:   r,
		up:      make([]upLink, 1, nodeCap),
		nodes:   make([]node, 1, nodeCap),
		heads:   make([]int32, r.Len()),
		totals:  make([]int, r.Len()),
		rootIdx: make([]int32, r.Len()),
	}
}

// pathRef locates one transaction's rank path in Build's flat buffer. key
// packs the path's first two ranks (the second shifted by one so that "no
// second rank" sorts first), which decides almost every comparison of the
// lexicographic sort without touching the buffer.
type pathRef struct {
	key    uint64
	lo, hi int32
}

// Build constructs one tree from a run of transactions — the per-shard
// construction step; shard trees are mined together as a Forest. Items
// that are infrequent or lie outside the rank table are dropped, and a
// transaction left with no item contributes nothing.
//
// The build is sort-then-scan. A prefix tree does not depend on insertion
// order, so the transactions are first ordered lexicographically by rank
// path; then every path shares a prefix with its predecessor and opens new
// nodes only below it. That makes the node count known before the first
// node exists (the arena is allocated once, exactly), replaces the child
// lookup with a comparison against the previous path, and lays the nodes
// down depth-first. The number of allocations is a constant, independent
// of the transaction count.
//
// Node links and counts are int32, so a run with more than math.MaxInt32
// item occurrences cannot be indexed; Build panics on one rather than
// wrap.
//
//invcheck:hotpath
func Build(txs []transactions.Itemset, r *Ranks) *Tree {
	occurrences := runLength(txs)
	// Scan 1: every transaction becomes an ascending rank path in flat.
	flat := make([]int32, 0, occurrences)
	paths := make([]pathRef, 0, len(txs))
	for _, tx := range txs {
		lo := len(flat)
		for _, item := range tx {
			if uint(item) < uint(len(r.OfItem)) {
				if rk := r.OfItem[item]; rk >= 0 {
					flat = append(flat, rk)
				}
			}
		}
		p := flat[lo:]
		if len(p) == 0 {
			continue
		}
		// Insertion sort: transactions are short, and arrive ordered by
		// item id, which is not rank order.
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && p[j] < p[j-1]; j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
		key := uint64(p[0]) << 32
		if len(p) > 1 {
			key |= uint64(p[1]) + 1
		}
		paths = append(paths, pathRef{key: key, lo: int32(lo), hi: int32(len(flat))})
	}
	sortPaths(paths, flat)

	// Scan 2: a path adds one node per rank below the prefix it shares
	// with its predecessor.
	numNodes, maxLen := 0, 0
	var prev []int32
	for _, p := range paths {
		path := flat[p.lo:p.hi]
		shared := 0
		for shared < len(prev) && shared < len(path) && prev[shared] == path[shared] {
			shared++
		}
		numNodes += len(path) - shared
		maxLen = max(maxLen, len(path))
		prev = path
	}

	// Scan 3: lay the nodes down. open[d] is the node at depth d of the
	// previous path, so the shared prefix is read off the arena itself.
	t := newTree(r, numNodes+1)
	t.up, t.nodes = t.up[:numNodes+1], t.nodes[:numNodes+1]
	up, nodes := t.up, t.nodes
	open := make([]int32, maxLen)
	depth, next := 0, int32(1)
	for _, p := range paths {
		path := flat[p.lo:p.hi]
		d, parent := 0, int32(0)
		for d < depth && d < len(path) && up[open[d]].rank == path[d] {
			parent = open[d]
			nodes[parent].count++
			d++
		}
		for ; d < len(path); d++ {
			rk := path[d]
			up[next] = upLink{parent: parent, rank: rk}
			nodes[next] = node{sibling: nodes[parent].child, next: t.heads[rk], count: 1}
			nodes[parent].child = next
			t.heads[rk] = next
			open[d] = next
			parent = next
			next++
		}
		depth = len(path)
		for _, rk := range path {
			t.totals[rk]++
		}
	}
	for c := nodes[0].child; c != 0; c = nodes[c].sibling {
		t.rootIdx[up[c].rank] = c
	}
	present := make([]int32, 0, r.Len())
	for rk, total := range t.totals {
		if total > 0 {
			present = append(present, int32(rk))
		}
	}
	t.present = present
	return t
}

// runLength returns the number of item occurrences in txs — the bound on
// both Build's flat buffer and its node count — checked against the int32
// link range.
func runLength(txs []transactions.Itemset) int {
	occurrences := 0
	for _, tx := range txs {
		occurrences += len(tx)
	}
	if occurrences > math.MaxInt32 {
		panic("fptree: Build: run exceeds the int32 node-link range; shard the database")
	}
	return occurrences
}

// sortPaths orders the rank paths lexicographically. Equal paths are
// indistinguishable to the scan that follows, so the sort need not be
// stable.
func sortPaths(paths []pathRef, flat []int32) {
	slices.SortFunc(paths, func(a, b pathRef) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		// Equal keys: the same one-rank path twice, or the same two ranks
		// and the order is decided by what follows them.
		if a.hi-a.lo < 2 {
			return 0
		}
		return slices.Compare(flat[a.lo+2:a.hi], flat[b.lo+2:b.hi])
	})
}

// Ranks returns the shared rank table.
func (t *Tree) Ranks() *Ranks { return t.ranks }

// Total returns the summed count of rank's nodes — the exact support of
// the rank's item within the (conditional) database this tree represents.
func (t *Tree) Total(rank int32) int { return t.totals[rank] }

// Empty reports whether the tree holds no transactions.
func (t *Tree) Empty() bool { return len(t.nodes) == 1 }

// NumNodes returns the number of item nodes (the root is not counted).
func (t *Tree) NumNodes() int { return len(t.nodes) - 1 }

// Insert adds one rank path (ascending ranks, i.e. most frequent first)
// with the given count, sharing existing prefix nodes.
//
//invcheck:hotpath
func (t *Tree) Insert(path []int32, count int) {
	cur := int32(0)
	for _, rk := range path {
		if t.totals[rk] == 0 {
			//lint:ignore invcheck/allocbound present grows at most once per distinct rank — bounded by |L1|, not by the transaction count
			t.present = append(t.present, rk)
		}
		t.totals[rk] += count
		cur = t.step(cur, rk, count)
	}
}

// Present returns the ranks that occur in the tree, sorted ascending. For
// a conditional tree this is exactly the surviving pattern base — usually
// a tiny fraction of the rank universe — which keeps the mining recursion
// at O(ranks present) per tree instead of O(|L1|).
func (t *Tree) Present() []int32 {
	slices.Sort(t.present)
	return t.present
}

// step descends from cur to its rk child, creating the child if missing,
// and adds count to it.
//
//invcheck:hotpath
func (t *Tree) step(cur, rk int32, count int) int32 {
	var child int32
	if cur == 0 {
		child = t.rootIdx[rk]
	} else {
		child = t.nodes[cur].child
		for child != 0 && t.up[child].rank != rk {
			child = t.nodes[child].sibling
		}
	}
	if child == 0 {
		child = int32(len(t.nodes))
		// Both halves of the node grow together, at this one site.
		//lint:ignore invcheck/allocbound node-arena growth: a node is created once per distinct path prefix and the backing arrays double amortized, far below one alloc per transaction
		t.up, t.nodes = append(t.up, upLink{parent: cur, rank: rk}), append(t.nodes, node{
			sibling: t.nodes[cur].child,
			next:    t.heads[rk],
		})
		t.nodes[cur].child = child
		t.heads[rk] = child
		if cur == 0 {
			t.rootIdx[rk] = child
		}
	}
	t.nodes[child].count += int32(count)
	return child
}

// Merge folds o into t by path-wise integer addition: every path of o is
// inserted into t with its count. Merging shard trees in any order yields
// node counts and header totals bit-identical to building one tree over
// the concatenated shards, because addition is commutative and paths are
// independent of shard boundaries.
//
// No mining path calls Merge: shard trees are mined as a Forest, which
// does the same additions inside the first-level projections. It stays
// exported because bench/probes.go times it (fptree.merge_ms) and because
// the tests use the merged tree as the reference a forest must equal.
func (t *Tree) Merge(o *Tree) {
	t.mergeChildren(0, 0, o)
}

// mergeChildren mirrors o's subtree under src onto t's subtree under dst.
func (t *Tree) mergeChildren(dst, src int32, o *Tree) {
	for c := o.nodes[src].child; c != 0; c = o.nodes[c].sibling {
		rk := o.up[c].rank
		cnt := int(o.nodes[c].count)
		if t.totals[rk] == 0 {
			t.present = append(t.present, rk)
		}
		t.totals[rk] += cnt
		d := t.step(dst, rk, cnt)
		t.mergeChildren(d, c, o)
	}
}

// EncodedNode is the wire form of one FP-tree node for the distributed
// backend (internal/dist): the node's item rank, the pool index of its
// parent, and its transaction count. Child, sibling and header-chain links
// are structural and are rebuilt by Import, so a serialized tree is just
// the flat node pool. Count is an int on the wire side; Import bounds it
// to the tree's int32 node counts.
type EncodedNode struct {
	Rank   int32
	Parent int32
	Count  int
}

// Export serializes the tree's item nodes in pool order (the root is
// implicit). Nodes are appended to the pool as paths are inserted, so a
// parent always precedes its children; Import relies on that to rebuild
// links in one forward pass.
func (t *Tree) Export() []EncodedNode {
	out := make([]EncodedNode, 0, len(t.nodes)-1)
	for i, n := range t.nodes[1:] {
		u := t.up[i+1]
		out = append(out, EncodedNode{Rank: u.rank, Parent: u.parent, Count: int(n.count)})
	}
	return out
}

// Import rebuilds a tree from Export's node list under the shared rank
// table. Node counts, header totals and the present-rank set are identical
// to the exported tree's; sibling and header-chain order may differ, which
// mining never observes — pattern counts are sums over whole chains and
// merges are commutative. Malformed wire data (out-of-range rank or a
// parent that does not precede its child) returns an error instead of
// corrupting the pool, and so does a count beyond the int32 node counts.
func Import(r *Ranks, nodes []EncodedNode) (*Tree, error) {
	t := newTree(r, len(nodes)+1)
	for i, en := range nodes {
		idx := int32(len(t.nodes))
		if en.Rank < 0 || int(en.Rank) >= r.Len() {
			return nil, fmt.Errorf("fptree: import node %d: rank %d outside universe %d", i, en.Rank, r.Len())
		}
		if en.Parent < 0 || en.Parent >= idx {
			return nil, fmt.Errorf("fptree: import node %d: parent %d does not precede it", i, en.Parent)
		}
		// Every exported node carries at least one transaction; zero or
		// negative wire counts would corrupt the first-touch present set
		// and the totals.
		if en.Count <= 0 || en.Count > math.MaxInt32 {
			return nil, fmt.Errorf("fptree: import node %d: count %d outside [1, %d]", i, en.Count, math.MaxInt32)
		}
		t.up = append(t.up, upLink{parent: en.Parent, rank: en.Rank})
		t.nodes = append(t.nodes, node{
			sibling: t.nodes[en.Parent].child,
			next:    t.heads[en.Rank],
			count:   int32(en.Count),
		})
		t.nodes[en.Parent].child = idx
		t.heads[en.Rank] = idx
		if en.Parent == 0 {
			t.rootIdx[en.Rank] = idx
		}
		if t.totals[en.Rank] == 0 {
			t.present = append(t.present, en.Rank)
		}
		t.totals[en.Rank] += en.Count
	}
	return t, nil
}

// Scratch pools the buffers conditional projection and single-path
// detection reuse across the mining recursion: the per-rank conditional
// count array (zeroed back after every projection), the pattern-base
// buffers, the single-path buffers, and released conditional trees. One
// Scratch serves one goroutine; it must not be shared concurrently.
type Scratch struct {
	counts  []int   // per-rank conditional counts, transiently non-zero
	touched []int32 // ranks written into counts by the current projection; len |L1|
	// The conditional pattern base of the current projection: path i is
	// pathRanks[pathEnds[i-1]:pathEnds[i]] (deepest ancestor first, as the
	// upward walk meets them) and carries pathCounts[i] transactions.
	pathRanks  []int32
	pathEnds   []int
	pathCounts []int
	spRanks    []int32 // SinglePath rank buffer
	spCounts   []int   // SinglePath count buffer
	free       []*Tree // released conditional trees, ready for reuse
}

// NewScratch returns a scratch sized for the rank universe.
func NewScratch(r *Ranks) *Scratch {
	return &Scratch{counts: make([]int, r.Len()), touched: make([]int32, r.Len())}
}

// grown returns b at more than twice its length, contents kept — the
// amortized growth step of the scratch's pattern-base buffers, which
// Project writes by index up to their length.
func grown[T any](b []T) []T {
	return append(b, make([]T, len(b)+64)...)
}

// Release returns a conditional tree obtained from Project to the pool so
// the next projection reuses its node slice and header arrays.
func (s *Scratch) Release(t *Tree) { s.free = append(s.free, t) }

// getTree hands out a recycled tree (reset) or a fresh one.
func (s *Scratch) getTree(r *Ranks) *Tree {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		t.reset(r)
		return t
	}
	return New(r)
}

// reset clears the tree for reuse under the given rank table.
func (t *Tree) reset(r *Ranks) {
	t.ranks = r
	t.up, t.nodes = t.up[:1], t.nodes[:1]
	t.up[0], t.nodes[0] = upLink{}, node{}
	t.present = t.present[:0]
	if len(t.heads) != r.Len() {
		t.heads = make([]int32, r.Len())
		t.totals = make([]int, r.Len())
		t.rootIdx = make([]int32, r.Len())
		return
	}
	for i := range t.heads {
		t.heads[i] = 0
	}
	for i := range t.totals {
		t.totals[i] = 0
	}
	for i := range t.rootIdx {
		t.rootIdx[i] = 0
	}
}

// Project builds the conditional FP-tree of rank: the prefix paths of
// rank's header chain form its conditional pattern base; items whose
// conditional support falls below minCount are pruned before insertion
// (conditional-tree pruning), so the returned tree holds exactly the
// frequent extension context of rank. The tree comes from the scratch
// pool — hand it back with s.Release once its recursion finishes.
func (t *Tree) Project(rank int32, minCount int, s *Scratch) *Tree {
	return project(t.ranks, []*Tree{t}, rank, minCount, s)
}

// Forest is a set of trees over disjoint parts of one database, sharing
// one *Ranks — the per-shard trees of a parallel build, or the per-worker
// trees of a distributed one. It stands in for the tree a build over the
// whole database would give: Total and Project sum over the member trees,
// and since both are sums of node counts the results are identical to the
// single tree's. The zero-tree forest is the empty database.
type Forest struct {
	ranks *Ranks
	trees []*Tree
}

// NewForest gathers trees built under r. Nil entries — the shards a short
// database never filled — are skipped.
func NewForest(r *Ranks, trees ...*Tree) Forest {
	f := Forest{ranks: r, trees: make([]*Tree, 0, len(trees))}
	for _, t := range trees {
		if t != nil {
			f.trees = append(f.trees, t)
		}
	}
	return f
}

// Ranks returns the shared rank table.
func (f Forest) Ranks() *Ranks { return f.ranks }

// Trees returns the member trees.
func (f Forest) Trees() []*Tree { return f.trees }

// Total returns rank's support over the whole forest.
func (f Forest) Total(rank int32) int {
	total := 0
	for _, t := range f.trees {
		total += t.totals[rank]
	}
	return total
}

// Project builds the conditional FP-tree of rank over the whole forest:
// every member's header chain for rank feeds one pattern base and one
// conditional tree, exactly as Tree.Project does for a single tree.
func (f Forest) Project(rank int32, minCount int, s *Scratch) *Tree {
	return project(f.ranks, f.trees, rank, minCount, s)
}

// project is the projection kernel. It chases each chain node's parent
// links once, reading only the hot up array: the upward walk both sums the
// conditional counts and records the prefix path in the scratch's
// pattern-base buffers, and the conditional tree is then built from those
// buffers alone.
//
//invcheck:hotpath
func project(r *Ranks, trees []*Tree, rank int32, minCount int, s *Scratch) *Tree {
	ranks, ends, counts := s.pathRanks, s.pathEnds, s.pathCounts
	nRanks, nPaths, nTouched := 0, 0, 0
	for _, t := range trees {
		up, nodes := t.up, t.nodes
		for n := t.heads[rank]; n != 0; n = nodes[n].next {
			p := up[n].parent
			if p == 0 {
				continue
			}
			cnt := int(nodes[n].count)
			for ; p != 0; p = up[p].parent {
				rk := up[p].rank
				if s.counts[rk] == 0 {
					s.touched[nTouched] = rk
					nTouched++
				}
				s.counts[rk] += cnt
				if nRanks == len(ranks) {
					ranks = grown(ranks)
				}
				ranks[nRanks] = rk
				nRanks++
			}
			if nPaths == len(ends) {
				ends, counts = grown(ends), grown(counts)
			}
			ends[nPaths], counts[nPaths] = nRanks, cnt
			nPaths++
		}
	}
	s.pathRanks, s.pathEnds, s.pathCounts = ranks, ends, counts

	cond := s.getTree(r)
	lo := 0
	for i := 0; i < nPaths; i++ {
		// Keep the surviving ranks, compacted in place and reversed: the
		// walk recorded them deepest first, insertion wants ascending.
		path := ranks[lo:ends[i]]
		lo = ends[i]
		kept := 0
		for _, rk := range path {
			if s.counts[rk] >= minCount {
				path[kept] = rk
				kept++
			}
		}
		if kept == 0 {
			continue
		}
		path = path[:kept]
		slices.Reverse(path)
		cond.Insert(path, counts[i])
	}
	// Zero only the touched counters so the array is clean for the next
	// projection at O(distinct ranks seen), not O(|L1|).
	for _, rk := range s.touched[:nTouched] {
		s.counts[rk] = 0
	}
	return cond
}

// SinglePath reports whether the tree is one chain (every node has at most
// one child) and, if so, returns the chain's ranks and counts top-down.
// The returned slices are scratch-owned and valid until the next
// SinglePath call on the same scratch. Counts never increase along the
// chain, which is what makes the miner's subset shortcut exact: a subset's
// support is its deepest member's count.
func (t *Tree) SinglePath(s *Scratch) ([]int32, []int, bool) {
	s.spRanks = s.spRanks[:0]
	s.spCounts = s.spCounts[:0]
	for n := t.nodes[0].child; n != 0; n = t.nodes[n].child {
		if t.nodes[n].sibling != 0 {
			return nil, nil, false
		}
		s.spRanks = append(s.spRanks, t.up[n].rank)
		s.spCounts = append(s.spCounts, int(t.nodes[n].count))
	}
	return s.spRanks, s.spCounts, true
}
