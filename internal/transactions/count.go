package transactions

// The per-transaction count kernels of the level-wise passes that need no
// counting structure of their own (the pass-k hash tree and the FP-tree
// live in internal/hashtree and internal/fptree). Every scan that counts
// items or pairs — the local goroutine-sharded scans, the dist worker's
// replica scans — calls these, so the arithmetic behind byte-identical
// counts has one definition; the incremental maintainer, which also counts
// deleted transactions back out, shares TriIndex and keeps its own signed
// loop.

// CountItems adds tx's items into the flat pass-1 array counts, which must
// cover the item universe (every item < len(counts)).
func CountItems(tx Itemset, counts []int) {
	for _, item := range tx {
		counts[item]++
	}
}

// TriIndex is the position of the rank pair i < j < n in the row-major
// upper-triangular pair array of n*(n-1)/2 counters that pass 2 counts
// into.
func TriIndex(n, i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }

// CountPairs adds every pair of tx's ranked items into the triangular
// array counts (see TriIndex). rank maps item id to a rank below n; a
// negative rank, or an item beyond len(rank), is unranked and skipped.
// Ranks must ascend with item id, as L1 ranks in item order do, so that a
// sorted transaction yields i < j. ranks is scratch: pass the previous
// call's return value so one scan allocates it once.
func CountPairs(tx Itemset, rank []int, n int, counts, ranks []int) []int {
	ranks = ranks[:0]
	for _, item := range tx {
		if item < len(rank) && rank[item] >= 0 {
			ranks = append(ranks, rank[item])
		}
	}
	for a := 0; a < len(ranks); a++ {
		for b := a + 1; b < len(ranks); b++ {
			counts[TriIndex(n, ranks[a], ranks[b])]++
		}
	}
	return ranks
}
