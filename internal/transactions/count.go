package transactions

// The per-transaction count kernels of the level-wise passes: items, pairs,
// and the candidate k-itemsets of every later pass. Every scan that counts
// them — the local goroutine-sharded scans, the dist worker's replica
// scans, the reference engines and the incremental maintainer's delta —
// calls these, so the arithmetic behind byte-identical counts has one
// definition; the FP-tree, pattern growth's counting structure, lives in
// internal/fptree. The maintainer, which also counts deleted transactions
// back out, shares TriBases and keeps its own signed loop for items and
// pairs.
//
// Pass k >= 3 counts candidates a block of at most 4096 rows at a time:
// the block's rows are laid out by item as lists of in-block row offsets
// (layBlock, one walk and a counting sort), each candidate item's list sets
// the bits of a tid-bitset, and a candidate's support is the popcount of
// its items' ANDed bitsets (countBlock). A Layout keeps the lists of every
// block, so the local scans walk a shard's rows once per mine, at C3, and
// every later pass only sets bits from the lists; CountTids lays out and
// counts one block after another for a list counted once (a dist worker's
// call, the maintainer's delta, a reference engine's pass).
//
// Counters are int32, the natural width of a support: a store holds at most
// math.MaxInt32 rows (ErrTooManyTransactions), so no count of it can pass
// math.MaxInt32. Half-width counters halve the pass-2 triangle, which at
// low support is the largest array a mine allocates, and the cache lines
// its scan touches per pair.

import (
	"context"
	"errors"
	"math/bits"
	"slices"
	"sync"
)

// CountItems adds tx's items into the flat pass-1 array counts, which must
// cover the item universe (every item < len(counts)).
func CountItems(tx Itemset, counts []int32) {
	for _, item := range tx {
		counts[item]++
	}
}

// TriIndex is the position of the rank pair i < j < n in the row-major
// upper-triangular pair array of n*(n-1)/2 counters that pass 2 counts
// into.
func TriIndex(n, i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }

// TriBases returns the row-base table of the n-rank triangle: base[i] is
// TriIndex(n, i, 0), so the pair i < j sits at base[i]+j and a scan adds
// where TriIndex multiplies. Build it once per pass.
func TriBases(n int) []int {
	base := make([]int, n)
	for i := range base {
		base[i] = TriIndex(n, i, 0)
	}
	return base
}

// CountPairs adds into the triangular array counts, whose row bases are
// base (TriBases of the rank count n), every pair i < j of tx's ranked
// items whose lower rank i lies in the band [lo, hi) of triangle rows;
// [0, n) counts every pair. Workers that share one triangle each count
// their own band of rows, so none writes another's counters. rank maps
// item id to a rank below len(base); a negative rank, or an item beyond
// len(rank), is unranked and skipped. Ranks must ascend with item id, as
// L1 ranks in item order do, so that a sorted transaction yields i < j.
// ranks is scratch: pass the previous call's return value so one scan
// allocates it once.
func CountPairs(tx Itemset, rank, base []int, lo, hi int, counts []int32, ranks []int) []int {
	if cap(ranks) < len(tx) {
		ranks = make([]int, len(tx), 2*len(tx))
	}
	ranks = ranks[:len(tx)]
	n := 0
	for _, item := range tx {
		if item >= len(rank) {
			continue
		}
		r := rank[item]
		ranks[n] = r
		n += int(uint(lo-r-1) >> 63) // r >= lo, without a branch to mispredict
	}
	ranks = ranks[:n]
	for a, i := range ranks {
		if i >= hi {
			break
		}
		row := base[i]
		for _, j := range ranks[a+1:] {
			counts[row+j]++
		}
	}
	return ranks
}

// ErrEmptyCandidate is NewCandidates' one error: the empty itemset is no
// candidate.
var ErrEmptyCandidate = errors.New("transactions: empty candidate itemset")

// Candidates is a list of candidate itemsets made ready for counting
// (CountTids, NewLayout and Layout.Count): one counting pass's C_k, or
// every level the incremental maintainer tracks. Only the items some
// candidate names are ranked, in item order, so a block lays out those
// alone (the transaction trimming of Park, Chen & Yu's DHP, column-wise),
// and each candidate is kept as its items' ranks. It is read-only once
// built: concurrent counts over disjoint rows may share it.
type Candidates struct {
	rank     []int32 // item id -> rank, -1 for an item no candidate names; ends after the largest ranked item
	ranks    []int32 // every candidate's item ranks, back to back; a leading -1 marks one naming an item outside the universe
	start    []int32 // candidate i's ranks are ranks[start[i]:start[i+1]]
	live     int     // ranked items
	shortest int     // the shortest candidate's length
	longest  int     // the longest candidate's length
}

// NewCandidates prepares sets, distinct non-empty itemsets each sorted
// ascending, for counting over rows whose items lie in [0, numItems). A
// candidate that names an item outside that universe counts 0. The rank
// table runs to the largest item some candidate names inside the
// universe, so it is sized by the candidates, never by an item id beyond
// them or beyond the universe. A count reuses the AND of a
// candidate's leading items across the consecutive candidates that share
// them, so sets in lexicographic order (apriori-gen's) count fastest; any
// order counts exactly.
func NewCandidates(sets []Itemset, numItems int) (*Candidates, error) {
	c := &Candidates{start: make([]int32, 1, len(sets)+1)}
	if len(sets) == 0 {
		return c, nil
	}
	c.shortest = len(sets[0])
	total, top := 0, -1 // top: the largest item named inside the universe
	for _, s := range sets {
		if len(s) == 0 {
			return nil, ErrEmptyCandidate
		}
		c.shortest, c.longest, total = min(c.shortest, len(s)), max(c.longest, len(s)), total+len(s)
		for _, item := range s {
			if item < numItems {
				top = max(top, item)
			}
		}
	}
	c.rank = make([]int32, top+1)
	for _, s := range sets {
		for _, item := range s {
			if uint(item) < uint(len(c.rank)) {
				c.rank[item] = 1
			}
		}
	}
	for item, named := range c.rank {
		c.rank[item] = -1
		if named == 1 {
			c.rank[item] = int32(c.live)
			c.live++
		}
	}
	c.ranks = make([]int32, total)
	at := 0
	for _, s := range sets {
		out := c.ranks[at : at+len(s)]
		for j, item := range s {
			if uint(item) >= uint(len(c.rank)) {
				out[0] = -1
				break
			}
			out[j] = c.rank[item]
		}
		at += len(s)
		c.start = append(c.start, int32(at))
	}
	return c, nil
}

// Len returns the number of candidates.
func (c *Candidates) Len() int { return len(c.start) - 1 }

// maxBlockWords is the most words a block's tid-bitset runs to: 4096 rows,
// so an in-block row offset fits a uint16.
const maxBlockWords = 64

// tidBudget bounds, in words (1 MiB), the bitsets one count lays out per
// block and the prefix ANDs it keeps beside them. A list naming more items
// than tidBudget/maxBlockWords counts in shorter blocks.
const tidBudget = 1 << 17

// ctxCandidates is how many candidates a block counts between context
// polls.
const ctxCandidates = 4096

// blockWords is the words per ranked item of the blocks c lays out over n
// rows: a block of 4096 rows, or fewer when there are fewer rows or so
// many ranked items that 4096 would overrun tidBudget.
func (c *Candidates) blockWords(n int) int {
	return min(maxBlockWords, (n+63)/64, max(1, tidBudget/(c.live+c.longest)))
}

// block is one block of rows laid out by item: held rows, and for each
// ranked item r the in-block offsets of the rows holding it,
// offs[start[r]:start[r+1]], ascending.
type block struct {
	held  int
	start []int32
	offs  []uint16
}

// tidScratch is one count's scratch, pooled so the scans of a mine reuse
// it pass after pass: the bitsets and sums of the count, and the block
// being laid out (its rows' ranks back to back, row h's ending at
// ends[h], and the counting sort's cursors).
type tidScratch struct {
	tids []uint64 // the block's bitsets: rank r at [r*stride, r*stride+words); all zero between blocks
	pre  []uint64 // the current prefix's ANDs, one row of words per prefix of 2 or more items
	sums []int32  // the supports so far

	ranks []int32
	ends  []int32
	next  []int32
	b     block
}

var tidScratchPool = sync.Pool{New: func() any { return new(tidScratch) }}

// getScratch returns pooled scratch sized for counting c in blocks of
// stride words, with sums cleared.
func getScratch(c *Candidates, stride int) *tidScratch {
	s := tidScratchPool.Get().(*tidScratch)
	s.tids = grown(s.tids, c.live*stride)
	s.pre = grown(s.pre, max(c.longest-2, 0)*stride)
	s.sums = grown(s.sums, c.Len())
	clear(s.sums)
	return s
}

// grown returns buf resized to n, reallocated only when it is too short.
func grown[T uint64 | int32 | uint16](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// kept returns buf with room for n elements, its content kept: at least
// doubled when it grows.
func kept(buf []int32, n int) []int32 {
	if n <= len(buf) {
		return buf
	}
	out := make([]int32, max(n, 2*len(buf)))
	copy(out, buf)
	return out
}

// CountTids adds to counts[i] the support over rows of c's candidate i. It
// is Layout's count for a list that is counted once: each block of rows
// is laid out by the same routine and counted at once. ctx is polled
// before every block and every ctxCandidates candidates within one; on
// cancellation CountTids returns ctx.Err() and leaves counts as they were.
// counts must have c.Len() slots.
func CountTids(ctx context.Context, c *Candidates, rows []Itemset, counts []int32) error {
	if c.Len() == 0 || len(rows) == 0 {
		return ctx.Err()
	}
	stride := c.blockWords(len(rows))
	s := getScratch(c, stride)
	defer tidScratchPool.Put(s)
	for next := 0; next < len(rows); {
		if err := ctx.Err(); err != nil {
			return err
		}
		next = c.layBlock(rows, next, 64*stride, s)
		if err := c.countLaid(ctx, &s.b, nil, stride, s); err != nil {
			return err
		}
	}
	for i, n := range s.sums {
		counts[i] += n
	}
	return nil
}

// Layout is a set of rows laid out once for every count that follows: the
// level-wise passes k >= 3 of one shard, laid out at C3. It holds the rows
// in blocks of at most 4096, keeping only those with at least as many of
// the laid-out items as the list it was built for has in its shortest
// candidate (no other row can contain a candidate of it or of any later
// pass), and one list of in-block row offsets per laid-out item. A count
// sets its own items' tid-bitsets from those lists and ANDs them as
// CountTids does, so the rows are walked once per mine, not once per
// pass; the offsets take 2 bytes per kept occurrence, where bitsets of
// every laid-out item would take a bit per kept row per item. It is
// read-only once built.
type Layout struct {
	rank   []int32   // item id -> the item's list in a block, -1 for an item not laid out
	minLen int       // the row filter: a kept row holds at least this many laid-out items
	rows   []Itemset // what a list the layout does not cover is counted over
	stride int       // words per item of a block's bitsets
	blocks []block
}

// NewLayout lays rows out for c's items, in one walk over the rows that
// counting-sorts each block's occurrences by item into offset lists sized
// exactly. ctx is polled before every block; on cancellation NewLayout
// returns ctx.Err() and no layout.
func NewLayout(ctx context.Context, c *Candidates, rows []Itemset) (*Layout, error) {
	l := &Layout{rank: c.rank, minLen: c.shortest, rows: rows}
	if c.live == 0 {
		return l, ctx.Err()
	}
	l.stride = c.blockWords(len(rows))
	s := tidScratchPool.Get().(*tidScratch)
	defer tidScratchPool.Put(s)
	for next := 0; next < len(rows); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next = c.layBlock(rows, next, 64*l.stride, s)
		if s.b.held > 0 {
			l.blocks = append(l.blocks, block{held: s.b.held, start: slices.Clone(s.b.start), offs: slices.Clone(s.b.offs)})
		}
	}
	return l, nil
}

// Count adds to counts[i] the support over the layout's rows of c's
// candidate i, and polls ctx as CountTids does, leaving counts as they
// were on cancellation. counts must have c.Len() slots. A list the layout
// does not cover — one naming an item inside the universe that was not
// laid out, or one with a candidate shorter than the row filter — is
// counted over the rows by CountTids, so every list counts exactly.
func (l *Layout) Count(ctx context.Context, c *Candidates, counts []int32) error {
	lists, ok := l.lists(c)
	if !ok {
		return CountTids(ctx, c, l.rows, counts)
	}
	if c.Len() == 0 || len(l.blocks) == 0 {
		return ctx.Err()
	}
	s := getScratch(c, l.stride)
	defer tidScratchPool.Put(s)
	for i := range l.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.countLaid(ctx, &l.blocks[i], lists, l.stride, s); err != nil {
			return err
		}
	}
	for i, n := range s.sums {
		counts[i] += n
	}
	return nil
}

// countLaid adds c's supports over the laid-out block b into s.sums: it
// sets the bitsets of c's items in s.tids from b's lists (lists as
// setBits takes them), counts, and clears the bitsets again.
func (c *Candidates) countLaid(ctx context.Context, b *block, lists []int32, stride int, s *tidScratch) error {
	b.setBits(lists, stride, s.tids)
	err := c.countBlock(ctx, stride, (b.held+63)/64, s.tids, s.pre, s.sums)
	clear(s.tids)
	return err
}

// lists maps each item c ranks to the layout's list of it, and reports
// whether the layout covers c.
func (l *Layout) lists(c *Candidates) ([]int32, bool) {
	if c.Len() > 0 && c.shortest < l.minLen {
		return nil, false
	}
	lists := make([]int32, c.live)
	for item, r := range c.rank {
		if r < 0 {
			continue
		}
		if item >= len(l.rank) || l.rank[item] < 0 {
			return nil, false
		}
		lists[r] = l.rank[item]
	}
	return lists, true
}

// layBlock lays out into s.b the next block: the rows from next on that
// hold at least c.shortest ranked items, up to maxRows of them. One walk
// collects each kept row's ranks, and a counting sort by rank turns them
// into the per-item offset lists. It returns the index of the first row it
// did not look at.
//
//invcheck:hotpath
func (c *Candidates) layBlock(rows []Itemset, next, maxRows int, s *tidScratch) int {
	rank, shortest := c.rank, c.shortest
	ranks := s.ranks
	ends := grown(s.ends, maxRows)
	at, held := 0, 0
	for ; next < len(rows) && held < maxRows; next++ {
		row := rows[next]
		if len(row) < shortest {
			continue
		}
		ranks = kept(ranks, at+len(row))
		from := at
		for _, item := range row {
			if uint(item) >= uint(len(rank)) {
				continue
			}
			r := rank[item]
			ranks[at] = r
			at += int(uint32(^r) >> 31) // r >= 0, without a branch to mispredict
		}
		if at-from < shortest {
			at = from
			continue
		}
		ends[held] = int32(at)
		held++
	}
	start := grown(s.b.start, c.live+1)
	clear(start)
	for _, r := range ranks[:at] {
		start[r+1]++
	}
	for r := range c.live {
		start[r+1] += start[r]
	}
	cur := grown(s.next, c.live)
	copy(cur, start)
	offs := grown(s.b.offs, at)
	from := int32(0)
	for h, end := range ends[:held] {
		for _, r := range ranks[from:end] {
			offs[cur[r]] = uint16(h)
			cur[r]++
		}
		from = end
	}
	s.ranks, s.ends, s.next = ranks, ends, cur
	s.b = block{held: held, start: start, offs: offs}
	return next
}

// setBits sets, in tids laid out stride words per rank, the bit of every
// row of b that holds each ranked item: rank r reads b's list lists[r], or
// list r when lists is nil.
//
//invcheck:hotpath
func (b *block) setBits(lists []int32, stride int, tids []uint64) {
	n := len(b.start) - 1
	if lists != nil {
		n = len(lists)
	}
	for r := range n {
		lr := int32(r)
		if lists != nil {
			lr = lists[r]
		}
		set := tids[r*stride : (r+1)*stride]
		for _, o := range b.offs[b.start[lr]:b.start[lr+1]] {
			set[o>>6] |= 1 << (o & 63)
		}
	}
}

// countBlock adds every candidate's support over one block laid out in
// tids, stride words per ranked item of which the first words hold rows,
// into sums. pre[(j-1)*words : j*words] holds the AND of the first j+1
// items of the last candidate counted, for j from 1 to its length less 2;
// a candidate refreshes only the ANDs from the first item where it departs
// from that one.
//
//invcheck:hotpath
func (c *Candidates) countBlock(ctx context.Context, stride, words int, tids, pre []uint64, sums []int32) error {
	var last []int32
	for i := range sums {
		if i%ctxCandidates == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cand := c.ranks[c.start[i]:c.start[i+1]]
		if cand[0] < 0 {
			continue
		}
		k, same := len(cand), 0
		for same < min(k, len(last))-1 && cand[same] == last[same] {
			same++
		}
		last = cand
		at := int(cand[0]) * stride
		prefix := tids[at : at+words]
		for j := 1; j < k-1; j++ {
			dst := pre[(j-1)*words : j*words]
			if j >= same {
				at = int(cand[j]) * stride
				andInto(dst, prefix, tids[at:at+words])
			}
			prefix = dst
		}
		if k == 1 {
			sums[i] += int32(onesCount(prefix))
		} else {
			at = int(cand[k-1]) * stride
			sums[i] += int32(andCount(prefix, tids[at:at+words]))
		}
	}
	return nil
}

// andInto sets dst to a AND b, word by word.
//
//invcheck:hotpath
func andInto(dst, a, b []uint64) {
	b = b[:len(a)]
	dst = dst[:len(a)]
	for w, x := range a {
		dst[w] = x & b[w]
	}
}

// andCount returns the popcount of a AND b.
//
//invcheck:hotpath
func andCount(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for w, x := range a {
		n += bits.OnesCount64(x & b[w])
	}
	return n
}

// onesCount returns the popcount of a.
//
//invcheck:hotpath
func onesCount(a []uint64) int {
	n := 0
	for _, x := range a {
		n += bits.OnesCount64(x)
	}
	return n
}
