package reference

import (
	"context"
	"slices"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// AprioriTid is the second VLDB'94 algorithm: after the first pass it never
// rescans the database. Instead it carries C̄k — for every transaction, the
// ids of the candidate k-itemsets it contains — and derives C̄k+1 from C̄k
// using the two generator (k-1)-itemsets of each candidate.
type AprioriTid struct{}

// Name implements assoc.Miner.
func (a *AprioriTid) Name() string { return "AprioriTid" }

// tidEntry is one transaction's surviving candidate ids.
type tidEntry struct {
	tid   int
	cands []int // indices into the current candidate list, ascending
}

// Mine implements assoc.Miner.
func (a *AprioriTid) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (a *AprioriTid) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	res, level, err := startResult(ctx, db, minSupport, nil)
	if err != nil || len(level) == 0 {
		return res, err
	}
	bar, err := buildBar(ctx, db, level)
	if err != nil {
		return nil, err
	}
	for k := 2; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		prev := itemsetsOf(level)
		cands := assoc.AprioriGen(prev)
		if len(cands) == 0 {
			break
		}
		counts := make([]int32, len(cands))
		if bar, err = advanceBar(ctx, bar, generatorIndices(cands, prev), counts); err != nil {
			return nil, err
		}
		level, bar = thresholdBar(cands, counts, res.MinCount, bar)
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
	}
	return res, nil
}

// buildBar materialises C̄k over a frequent level: for every transaction
// that contains one of the level's itemsets, the ids (level indices,
// ascending) of those it contains. The level is sorted, so the itemsets
// that start with one item form a contiguous run, and each item of a
// transaction tests only its own run: over L1 this is one lookup per item.
// The scan polls ctx every ctxStride transactions.
func buildBar(ctx context.Context, db *transactions.DB, level []assoc.ItemsetCount) ([]tidEntry, error) {
	first := make([]int, db.NumItems()+1) // level[first[i]:first[i+1]] starts with item i
	for _, ic := range level {
		first[ic.Items[0]+1]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	bar := make([]tidEntry, 0, db.Len())
	for tid, tx := range db.Transactions {
		if tid%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var ids []int
		for i, item := range tx {
			for id := first[item]; id < first[item+1]; id++ {
				if tx[i+1:].ContainsAll(level[id].Items[1:]) {
					ids = append(ids, id)
				}
			}
		}
		if len(ids) > 0 {
			bar = append(bar, tidEntry{tid: tid, cands: ids})
		}
	}
	return bar, nil
}

// generatorIndices locates, for every candidate, the positions in prev of
// its two generators: the (k-1)-prefix and the prefix with the last item
// replaced by the second-to-last candidate item (the join pair). prev is
// sorted, so both are found by binary search.
func generatorIndices(cands, prev []transactions.Itemset) [][2]int {
	out := make([][2]int, len(cands))
	buf := make(transactions.Itemset, 0, 16)
	for i, c := range cands {
		k := len(c)
		buf = append(append(buf[:0], c[:k-2]...), c[k-1])
		g1, _ := slices.BinarySearchFunc(prev, c[:k-1], transactions.Itemset.Compare)
		g2, _ := slices.BinarySearchFunc(prev, buf, transactions.Itemset.Compare)
		out[i] = [2]int{g1, g2}
	}
	return out
}

// advanceBar is the C̄k pass AprioriTid and AprioriHybrid share: it
// computes C̄k from C̄k-1, counting into counts — a transaction contains
// candidate c exactly when it contains both of c's generators. Candidates
// are indexed by their first generator so each entry only probes
// candidates whose g1 it actually contains — the paper's join, rather
// than a scan of Ck per transaction. The entry loop polls ctx every
// ctxStride entries; on cancellation the partially advanced bar is
// discarded by the caller.
func advanceBar(ctx context.Context, bar []tidEntry, gens [][2]int, counts []int32) ([]tidEntry, error) {
	// byFirst[g1] lists (candidate id, g2) pairs.
	type cg struct{ ci, g2 int }
	byFirst := make(map[int][]cg)
	for ci, g := range gens {
		byFirst[g[0]] = append(byFirst[g[0]], cg{ci: ci, g2: g[1]})
	}
	out := bar[:0]
	for ei, e := range bar {
		if ei%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		has := make(map[int]struct{}, len(e.cands))
		for _, id := range e.cands {
			has[id] = struct{}{}
		}
		var next []int
		for _, g1 := range e.cands {
			for _, c := range byFirst[g1] {
				if _, ok := has[c.g2]; ok {
					next = append(next, c.ci)
					counts[c.ci]++
				}
			}
		}
		if len(next) > 0 {
			out = append(out, tidEntry{tid: e.tid, cands: next})
		}
	}
	return out, nil
}

// thresholdBar is the threshold-and-renumber step that ends a pass: the
// candidates whose count reaches minCount, in candidate order, and bar
// renumbered from candidate ids to ids into that level (a nil bar stays
// nil).
func thresholdBar(cands []transactions.Itemset, counts []int32, minCount int, bar []tidEntry) ([]assoc.ItemsetCount, []tidEntry) {
	var level []assoc.ItemsetCount
	keep := make([]int, len(cands)) // candidate id -> level id, or -1
	for ci, c := range counts {
		keep[ci] = -1
		if int(c) >= minCount {
			keep[ci] = len(level)
			level = append(level, assoc.ItemsetCount{Items: cands[ci], Count: int(c)})
		}
	}
	return level, filterBar(bar, keep)
}

// filterBar renumbers entries from candidate ids to frequent-set ids,
// dropping infrequent candidates and empty entries.
func filterBar(bar []tidEntry, keep []int) []tidEntry {
	out := bar[:0]
	for _, e := range bar {
		kept := e.cands[:0]
		for _, id := range e.cands {
			if keep[id] >= 0 {
				kept = append(kept, keep[id])
			}
		}
		if len(kept) > 0 {
			out = append(out, tidEntry{tid: e.tid, cands: kept})
		}
	}
	return out
}

// AprioriHybrid runs Apriori for the early passes and switches to
// AprioriTid once the estimated size of C̄k fits the memory budget,
// following the VLDB'94 heuristic: the estimate is the sum of candidate
// supports in the current pass plus the number of transactions.
type AprioriHybrid struct {
	// BudgetEntries caps the estimated C̄k size that triggers the switch.
	// Zero means 8x the number of transactions, a laptop-scale stand-in
	// for the paper's "fits in memory" test.
	BudgetEntries int
}

// Name implements assoc.Miner.
func (a *AprioriHybrid) Name() string { return "AprioriHybrid" }

// Mine implements assoc.Miner.
func (a *AprioriHybrid) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (a *AprioriHybrid) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	res, level, err := startResult(ctx, db, minSupport, nil)
	if err != nil || len(level) == 0 {
		return res, err
	}
	budget := a.BudgetEntries
	if budget <= 0 {
		budget = 8 * db.Len()
	}
	res.Levels = append(res.Levels, level)
	n := len(level)
	level, est, err := countPairs(ctx, db, level, res.MinCount)
	if err != nil {
		return nil, err
	}
	res.Passes = append(res.Passes, assoc.PassStat{K: 2, Candidates: n * (n - 1) / 2, Frequent: len(level)})

	var bar []tidEntry
	switched := false
	for k := 3; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		// Switch for the next pass when C̄k is estimated to fit.
		if !switched && est <= budget {
			if bar, err = buildBar(ctx, db, level); err != nil {
				return nil, err
			}
			switched = true
		}
		prev := itemsetsOf(level)
		cands := assoc.AprioriGen(prev)
		if len(cands) == 0 {
			break
		}
		var counts []int32
		if switched {
			counts = make([]int32, len(cands))
			bar, err = advanceBar(ctx, bar, generatorIndices(cands, prev), counts)
		} else {
			counts, err = countCandidates(ctx, db, cands)
			est = db.Len()
			for _, c := range counts {
				est += int(c)
			}
		}
		if err != nil {
			return nil, err
		}
		level, bar = thresholdBar(cands, counts, res.MinCount, bar)
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
	}
	return res, nil
}

// countPairs is pass 2 as Apriori counts it: every pair of L1's items
// (in item order) in one triangular array (transactions.CountPairs),
// thresholded to L2 in lexicographic order. It also returns the size of
// C̄2, the switch estimate: |D| plus the triangle's total, since a
// transaction holding m frequent items holds m(m-1)/2 of their pairs.
func countPairs(ctx context.Context, db *transactions.DB, l1 []assoc.ItemsetCount, minCount int) ([]assoc.ItemsetCount, int, error) {
	n := len(l1)
	rank := make([]int, db.NumItems())
	for i := range rank {
		rank[i] = -1
	}
	for r, ic := range l1 {
		rank[ic.Items[0]] = r
	}
	tri := make([]int32, n*(n-1)/2)
	base := transactions.TriBases(n)
	var ranks []int
	for tid, tx := range db.Transactions {
		if tid%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		ranks = transactions.CountPairs(tx, rank, base, 0, n, tri, ranks)
	}
	est := db.Len()
	var l2 []assoc.ItemsetCount
	for r, i := 0, 0; r < n; r++ {
		for s := r + 1; s < n; s, i = s+1, i+1 {
			c := int(tri[i])
			est += c
			if c >= minCount {
				l2 = append(l2, assoc.ItemsetCount{Items: transactions.Itemset{l1[r].Items[0], l1[s].Items[0]}, Count: c})
			}
		}
	}
	return l2, est, nil
}
