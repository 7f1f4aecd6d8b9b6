package transactions

// The per-transaction count kernels of the level-wise passes: items, pairs,
// and the candidate k-itemsets of every later pass (CountTids). Every scan
// that counts them — the local goroutine-sharded scans, the dist worker's
// replica scans, the reference engines and the incremental maintainer's
// delta — calls these, so the arithmetic behind byte-identical counts has
// one definition; the FP-tree, pattern growth's counting structure, lives
// in internal/fptree. The maintainer, which also counts deleted
// transactions back out, shares TriBases and keeps its own signed loop for
// items and pairs.
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

// CountPairs adds every pair of tx's ranked items into the triangular
// array counts, whose row bases are base (TriBases of the rank count).
// rank maps item id to a rank below len(base); a negative rank, or an item
// beyond len(rank), is unranked and skipped. Ranks must ascend with item
// id, as L1 ranks in item order do, so that a sorted transaction yields
// i < j. ranks is scratch: pass the previous call's return value so one
// scan allocates it once.
func CountPairs(tx Itemset, rank, base []int, counts []int32, ranks []int) []int {
	ranks = ranks[:0]
	for _, item := range tx {
		if item < len(rank) && rank[item] >= 0 {
			ranks = append(ranks, rank[item])
		}
	}
	for a, i := range ranks {
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

// Candidates is a list of candidate itemsets made ready for CountTids: one
// counting pass's C_k, or every level the incremental maintainer tracks.
// Only the items some candidate names are ranked, in item order, so a
// block lays out a bitset for those alone (the transaction trimming of
// Park, Chen & Yu's DHP, column-wise), and each candidate is kept as its
// items' ranks. It is read-only once built: concurrent CountTids calls
// over disjoint rows may share it.
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
// them or beyond the universe. CountTids reuses the AND of a
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

// maxBlockWords is the most words a block's tid-bitset runs to: 4096 rows.
const maxBlockWords = 64

// tidBudget bounds, in words (1 MiB), the bitsets one CountTids call lays
// out per block and the prefix ANDs it keeps beside them. A pass naming
// more items than tidBudget/maxBlockWords counts in shorter blocks.
const tidBudget = 1 << 17

// ctxCandidates is how many candidates a block counts between context
// polls.
const ctxCandidates = 4096

// tidScratch is one CountTids call's scratch, pooled so the scans of a
// mine reuse it pass after pass.
type tidScratch struct {
	tids []uint64 // the block: the bitset of rank r at [r*stride, r*stride+words); all zero between blocks
	pre  []uint64 // the current prefix's ANDs, one row of words per prefix of 2 or more items
	sums []int32  // the supports so far
}

var tidScratchPool = sync.Pool{New: func() any { return new(tidScratch) }}

// CountTids adds to counts[i] the support over rows of c's candidate i,
// counted a block of at most 4096 rows at a time. A block holds only rows
// with at least as many ranked items as the shortest candidate (no other
// row can contain a candidate), laid out as one tid-bitset per ranked
// item; within it, a candidate's support is the popcount of its items'
// ANDed bitsets, and the AND of all but its last item is taken once per
// run of candidates sharing them. Blocks are shorter when many items are
// ranked, so the bitsets stay within tidBudget, and after each one only
// the words its layout spans are cleared. ctx is polled before every
// block and every ctxCandidates candidates within one; on cancellation
// CountTids returns ctx.Err() and leaves counts as they were. counts must
// have c.Len() slots.
func CountTids(ctx context.Context, c *Candidates, rows []Itemset, counts []int32) error {
	n := c.Len()
	if n == 0 || len(rows) == 0 {
		return ctx.Err()
	}
	stride := min(maxBlockWords, (len(rows)+63)/64, max(1, tidBudget/(c.live+c.longest)))
	s := tidScratchPool.Get().(*tidScratch)
	defer tidScratchPool.Put(s)
	s.tids = grown(s.tids, c.live*stride)
	s.pre = grown(s.pre, max(c.longest-2, 0)*stride)
	s.sums = grown(s.sums, n)
	clear(s.sums)
	for next := 0; next < len(rows); {
		if err := ctx.Err(); err != nil {
			return err
		}
		var held int
		held, next = c.fill(rows, next, stride, s.tids)
		err := c.countBlock(ctx, stride, (held+63)/64, s.tids, s.pre, s.sums)
		clear(s.tids)
		if err != nil {
			return err
		}
	}
	for i, n := range s.sums {
		counts[i] += n
	}
	return nil
}

// grown returns buf resized to n, reallocated only when it is too short.
func grown[T uint64 | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// fill lays out one block in tids, stride words per ranked item: the rows
// from next on that hold at least c.shortest ranked items, up to
// 64*stride of them, the b-th setting bit b of its ranked items' bitsets.
// It returns how many rows the block holds and the index of the first row
// it did not look at.
//
//invcheck:hotpath
func (c *Candidates) fill(rows []Itemset, next, stride int, tids []uint64) (int, int) {
	held := 0
	for ; next < len(rows) && held < 64*stride; next++ {
		live := 0
		for _, item := range rows[next] {
			if uint(item) < uint(len(c.rank)) && c.rank[item] >= 0 {
				live++
			}
		}
		if live < c.shortest {
			continue
		}
		w, bit := held>>6, uint64(1)<<(uint(held)&63)
		for _, item := range rows[next] {
			if uint(item) < uint(len(c.rank)) && c.rank[item] >= 0 {
				tids[int(c.rank[item])*stride+w] |= bit
			}
		}
		held++
	}
	return held, next
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
