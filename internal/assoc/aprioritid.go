package assoc

import (
	"context"

	"repro/internal/transactions"
)

// AprioriTid is the second VLDB'94 algorithm: after the first pass it never
// rescans the database. Instead it carries C̄k — for every transaction, the
// ids of the candidate k-itemsets it contains — and derives C̄k+1 from C̄k
// using the two generator (k-1)-itemsets of each candidate.
type AprioriTid struct{}

// Name implements Miner.
func (a *AprioriTid) Name() string { return "AprioriTid" }

// tidEntry is one transaction's surviving candidate ids.
type tidEntry struct {
	tid   int
	cands []int // indices into the current candidate list, ascending
}

// Mine implements Miner.
func (a *AprioriTid) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (a *AprioriTid) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	level, err := frequentOne(ctx, db, minCount)
	if err != nil {
		return nil, err
	}
	res.Passes = append(res.Passes, PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)})
	if len(level) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, level)

	bar := initialBar(db, level)
	for k := 2; ; k++ {
		prev := itemsetsOf(level)
		cands := aprioriGen(prev)
		if len(cands) == 0 {
			break
		}
		gens := generatorIndices(cands, prev)
		counts := make([]int, len(cands))
		var barErr error
		bar, barErr = advanceBar(ctx, bar, gens, counts)
		if barErr != nil {
			return nil, barErr
		}

		level = nil
		keep := make([]int, len(cands)) // candidate idx -> idx within frequent set, or -1
		for i := range keep {
			keep[i] = -1
		}
		for ci, c := range counts {
			if c >= minCount {
				keep[ci] = len(level)
				level = append(level, ItemsetCount{Items: cands[ci], Count: c})
			}
		}
		res.Passes = append(res.Passes, PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
		if len(level) == 0 {
			break
		}
		res.Levels = append(res.Levels, level)
		bar = filterBar(bar, keep)
	}
	return res, nil
}

// initialBar builds C̄1: each transaction's frequent items as indices into
// L1 (which is sorted by item id, so ids are ascending).
func initialBar(db *transactions.DB, l1 []ItemsetCount) []tidEntry {
	itemToID := make(map[int]int, len(l1))
	for i, ic := range l1 {
		itemToID[ic.Items[0]] = i
	}
	bar := make([]tidEntry, 0, db.Len())
	for tid, tx := range db.Transactions {
		ids := make([]int, 0, len(tx))
		for _, item := range tx {
			if id, ok := itemToID[item]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			bar = append(bar, tidEntry{tid: tid, cands: ids})
		}
	}
	return bar
}

// generatorIndices locates, for every candidate, the positions in prev of
// its two generators: the (k-1)-prefix and the prefix with the last item
// replaced by the second-to-last candidate item (the join pair). prev is
// sorted, enabling map lookup by key.
func generatorIndices(cands, prev []transactions.Itemset) [][2]int {
	idx := make(map[string]int, len(prev))
	for i, p := range prev {
		idx[p.Key()] = i
	}
	out := make([][2]int, len(cands))
	buf := make(transactions.Itemset, 0, 16)
	for i, c := range cands {
		k := len(c)
		g1 := c[:k-1]
		buf = buf[:0]
		buf = append(buf, c[:k-2]...)
		buf = append(buf, c[k-1])
		out[i] = [2]int{idx[g1.Key()], idx[buf.Key()]}
	}
	return out
}

// advanceBar computes C̄k from C̄k-1: a transaction contains candidate c
// exactly when it contains both of c's generators. Candidates are indexed
// by their first generator so each entry only probes candidates whose g1
// it actually contains — the paper's join, rather than a scan of Ck per
// transaction. The entry loop polls ctx every ctxStride entries; on
// cancellation the partially advanced bar is discarded by the caller.
func advanceBar(ctx context.Context, bar []tidEntry, gens [][2]int, counts []int) ([]tidEntry, error) {
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

// Name implements Miner.
func (a *AprioriHybrid) Name() string { return "AprioriHybrid" }

// Mine implements Miner.
func (a *AprioriHybrid) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (a *AprioriHybrid) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	budget := a.BudgetEntries
	if budget <= 0 {
		budget = 8 * db.Len()
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	level, err := frequentOne(ctx, db, minCount)
	if err != nil {
		return nil, err
	}
	res.Passes = append(res.Passes, PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)})
	if len(level) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, level)

	switched := false
	var bar []tidEntry
	for k := 2; ; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if k == 2 {
			// Pass-2 special case mirrors Apriori: triangular counting,
			// with the C̄2 size estimated from per-transaction frequent
			// pair counts.
			nCands := len(level) * (len(level) - 1) / 2
			freq1 := make(map[int]struct{}, len(level))
			for _, ic := range level {
				freq1[ic.Items[0]] = struct{}{}
			}
			est := db.Len()
			for _, tx := range db.Transactions {
				m := 0
				for _, item := range tx {
					if _, ok := freq1[item]; ok {
						m++
					}
				}
				est += m * (m - 1) / 2
			}
			level, err = countL2(ctx, scanLocal(db, 1), level, db.NumItems(), minCount)
			if err != nil {
				return nil, err
			}
			res.Passes = append(res.Passes, PassStat{K: 2, Candidates: nCands, Frequent: len(level)})
			if len(level) == 0 {
				break
			}
			res.Levels = append(res.Levels, level)
			if est <= budget {
				switched = true
				bar = buildBarFromLevel(db, level)
			}
			continue
		}
		prev := itemsetsOf(level)
		cands := aprioriGen(prev)
		if len(cands) == 0 {
			break
		}
		var counts []int
		if !switched {
			counts, err = scanLocal(db, 1).countCandidates(ctx, k, cands)
			if err != nil {
				return nil, err
			}
			estBar := db.Len()
			for _, c := range counts {
				estBar += c
			}
			// Switch for the next pass when C̄k+1 is estimated to fit.
			if estBar <= budget {
				switched = true
				bar = buildBarFromDB(db, cands, counts, minCount)
			}
		} else {
			gens := generatorIndices(cands, prev)
			counts = make([]int, len(cands))
			var barErr error
			bar, barErr = advanceBar(ctx, bar, gens, counts)
			if barErr != nil {
				return nil, barErr
			}
		}

		level = nil
		keep := make([]int, len(cands))
		for i := range keep {
			keep[i] = -1
		}
		for ci, c := range counts {
			if c >= minCount {
				keep[ci] = len(level)
				level = append(level, ItemsetCount{Items: cands[ci], Count: c})
			}
		}
		res.Passes = append(res.Passes, PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
		if len(level) == 0 {
			break
		}
		res.Levels = append(res.Levels, level)
		if switched && bar != nil {
			bar = filterBar(bar, keep)
		}
	}
	return res, nil
}

// buildBarFromLevel materialises C̄k directly over the frequent set, with
// entry ids indexing the level (already renumbered, so no filterBar pass
// is needed afterwards).
func buildBarFromLevel(db *transactions.DB, level []ItemsetCount) []tidEntry {
	bar := make([]tidEntry, 0, db.Len())
	for tid, tx := range db.Transactions {
		var ids []int
		for li, ic := range level {
			if tx.ContainsAll(ic.Items) {
				ids = append(ids, li)
			}
		}
		if len(ids) > 0 {
			bar = append(bar, tidEntry{tid: tid, cands: ids})
		}
	}
	return bar
}

// buildBarFromDB materialises C̄k for the switch pass by one scan over the
// database, keeping only candidates that are frequent (their ids are
// renumbered later by filterBar, so ids here index cands).
func buildBarFromDB(db *transactions.DB, cands []transactions.Itemset, counts []int, minCount int) []tidEntry {
	bar := make([]tidEntry, 0, db.Len())
	for tid, tx := range db.Transactions {
		var ids []int
		for ci, c := range cands {
			if counts[ci] >= minCount && tx.ContainsAll(c) {
				ids = append(ids, ci)
			}
		}
		if len(ids) > 0 {
			bar = append(bar, tidEntry{tid: tid, cands: ids})
		}
	}
	return bar
}
