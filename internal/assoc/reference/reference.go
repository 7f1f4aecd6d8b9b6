// Package reference holds the first-generation association miners that
// the SIGMOD'96 tutorial surveys and that no production path runs:
//
//   - AIS (Agrawal, Imielinski & Swami, SIGMOD'93)
//   - SETM (Houtsma & Swami, 1995)
//   - AprioriTid and AprioriHybrid (Agrawal & Srikant, VLDB'94)
//   - Partition (Savasere, Omiecinski & Navathe, VLDB'95)
//   - Sampling (Toivonen, VLDB'96)
//
// They reproduce paper tables A1 to A6 (internal/experiments constructs
// them directly). Every one is pinned byte-identical to assoc.Apriori, and
// its pass table pinned, by this package's tests. Each is a serial
// assoc.Miner; none is registered with the mining facade.
//
// The engines keep their papers' algorithms but count with the kernels
// the production scans use, so nothing here is a counting structure of its
// own: pass 1 is transactions.CountItems, AprioriHybrid's pass 2 is the
// triangle of transactions.CountPairs, and every candidate set — the
// global scans of Partition and Sampling and the Apriori passes of
// AprioriHybrid — is counted by countCandidates in tid-bitset blocks
// (transactions.CountTids), not by the VLDB'94 hash tree. Partition mines
// its partitions with assoc.Eclat. Every scan polls its context every
// ctxStride transactions (CountTids every block of at most 4096), the
// assoc.Miner contract.
package reference

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// ctxStride is how many transactions a scan processes between context
// polls, as in assoc.
const ctxStride = 1024

// checkInput validates the shared Mine preconditions, as assoc's engines
// do, and returns the absolute support count. On error the engines return
// the canonical empty Result alongside it.
func checkInput(db *transactions.DB, minSupport float64) (int, error) {
	if minSupport <= 0 || minSupport > 1 {
		return 0, fmt.Errorf("%w: %v", assoc.ErrBadSupport, minSupport)
	}
	if db == nil || db.Len() == 0 {
		return 0, assoc.ErrEmptyDB
	}
	return db.AbsoluteSupport(minSupport), nil
}

// startResult validates the input, counts pass 1 and returns the Result
// with that pass recorded (its candidates are the item universe) and L1,
// in item order. L1 is not yet appended to the levels.
func startResult(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, []assoc.ItemsetCount, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return &assoc.Result{}, nil, err
	}
	counts := make([]int32, db.NumItems())
	for tid, tx := range db.Transactions {
		if tid%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		transactions.CountItems(tx, counts)
	}
	var l1 []assoc.ItemsetCount
	for item, c := range counts {
		if int(c) >= minCount {
			l1 = append(l1, assoc.ItemsetCount{Items: transactions.Itemset{item}, Count: int(c)})
		}
	}
	res := &assoc.Result{MinCount: minCount, NumTx: db.Len()}
	res.Passes = append(res.Passes, assoc.PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(l1)})
	return res, l1, nil
}

// countCandidates is the one candidate counter: the itemsets cands
// (distinct, each sorted) counted over the database by the production
// pass-k kernel, transactions.CountTids, which polls ctx once per block.
// The supports are indexed like cands.
func countCandidates(ctx context.Context, db *transactions.DB, cands []transactions.Itemset) ([]int32, error) {
	c, err := transactions.NewCandidates(cands, db.NumItems())
	if err != nil {
		return nil, err
	}
	counts := make([]int32, len(cands))
	if err := transactions.CountTids(ctx, c, db.Transactions, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// countLevels counts candidates grouped by length — byLen[l-1] holds the
// distinct candidates of length l — and returns, per length, the frequent
// ones in lexicographic order and, per non-empty length, its pass.
// Partition's global scan, Sampling's verification and its miss repair
// all count through it.
func countLevels(ctx context.Context, db *transactions.DB, byLen [][]transactions.Itemset, minCount int) ([][]assoc.ItemsetCount, []assoc.PassStat, error) {
	levels := make([][]assoc.ItemsetCount, len(byLen))
	var passes []assoc.PassStat
	for l, cands := range byLen {
		if len(cands) == 0 {
			continue
		}
		counts, err := countCandidates(ctx, db, cands)
		if err != nil {
			return nil, nil, err
		}
		levels[l] = frequentOf(cands, counts, minCount)
		passes = append(passes, assoc.PassStat{K: l + 1, Candidates: len(cands), Frequent: len(levels[l])})
	}
	return levels, passes, nil
}

// frequentOf keeps the candidates whose count reaches minCount, in
// lexicographic order.
func frequentOf(cands []transactions.Itemset, counts []int32, minCount int) []assoc.ItemsetCount {
	var level []assoc.ItemsetCount
	for i, c := range cands {
		if n := int(counts[i]); n >= minCount {
			level = append(level, assoc.ItemsetCount{Items: c, Count: n})
		}
	}
	sortLevel(level)
	return level
}

// sortLevel orders a level lexicographically in place.
func sortLevel(level []assoc.ItemsetCount) {
	slices.SortFunc(level, func(a, b assoc.ItemsetCount) int { return a.Items.Compare(b.Items) })
}

// sortUnique sorts sets lexicographically and drops duplicates.
func sortUnique(sets []transactions.Itemset) []transactions.Itemset {
	slices.SortFunc(sets, transactions.Itemset.Compare)
	return slices.CompactFunc(sets, transactions.Itemset.Equal)
}

// itemsetsOf extracts the itemsets of a level.
func itemsetsOf(level []assoc.ItemsetCount) []transactions.Itemset {
	out := make([]transactions.Itemset, len(level))
	for i, ic := range level {
		out[i] = ic.Items
	}
	return out
}
