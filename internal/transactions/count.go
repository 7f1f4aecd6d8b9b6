package transactions

// The per-transaction count kernels of the level-wise passes that need no
// counting structure of their own (the pass-k hash tree and the FP-tree
// live in internal/hashtree and internal/fptree). Every scan that counts
// items or pairs — the local goroutine-sharded scans, the dist worker's
// replica scans — calls these, so the arithmetic behind byte-identical
// counts has one definition; the incremental maintainer, which also counts
// deleted transactions back out, shares TriBases and keeps its own signed
// loop. The maintainer counts its tracked k-itemsets over a journalled
// delta with the vertical pair below, FillTids and CountTids.
//
// Counters are int32, the natural width of a support: a store holds at most
// math.MaxInt32 rows (ErrTooManyTransactions), so no count of it can pass
// math.MaxInt32. Half-width counters halve the pass-2 triangle, which at
// low support is the largest array a mine allocates, and the cache lines
// its scan touches per pair.

import "math/bits"

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

// FillTids lays rows out vertically in tids, the flat tid-bitset block that
// CountTids reads: rank maps item id to a row of words words, so the
// bitset of an item of rank r is tids[r*words : (r+1)*words], and its bit
// i is set when rows[i] holds the item. A negative rank, or an item beyond
// len(rank), is unranked and skipped, as in CountPairs. rows must number
// at most 64*words, and tids must be zero on entry and cover every rank.
//
//invcheck:hotpath
func FillTids(rows []Itemset, rank []int, words int, tids []uint64) {
	for i, row := range rows {
		w, bit := i>>6, uint64(1)<<(uint(i)&63)
		for _, item := range row {
			if item < len(rank) && rank[item] >= 0 {
				tids[rank[item]*words+w] |= bit
			}
		}
	}
}

// CountTids adds sign times the support of each of sets over the block
// FillTids laid out in tids under the same rank into the matching counts
// slot: the popcount of the AND of the set's items' bitsets, so a set
// costs len(set)*words word operations however many rows hold it. Every
// set must be non-empty and every item of it ranked.
//
//invcheck:hotpath
func CountTids(sets []Itemset, rank []int, words int, tids []uint64, sign int32, counts []int32) {
	for i, set := range sets {
		at := rank[set[0]] * words
		n := 0
		for w, acc := range tids[at : at+words] {
			for _, item := range set[1:] {
				acc &= tids[rank[item]*words+w]
			}
			n += bits.OnesCount64(acc)
		}
		counts[i] += sign * int32(n)
	}
}
