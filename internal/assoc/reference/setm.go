package reference

import (
	"context"
	"sort"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// SETM is the set-oriented miner of Houtsma & Swami (1995), designed to be
// expressible in SQL. It carries L̄k — the full multiset of (tid, itemset)
// occurrences of frequent k-itemsets — joins it with the transaction table
// to extend each occurrence by later items of the same transaction, then
// aggregates the resulting (tid, candidate) tuples to counts. Materialising
// every occurrence tuple is what makes SETM slow and memory-hungry at low
// supports, the behaviour EXP-A1 reproduces.
type SETM struct{}

// Name implements assoc.Miner.
func (s *SETM) Name() string { return "SETM" }

// setmTuple is one occurrence of an itemset in a transaction.
type setmTuple struct {
	tid   int
	items transactions.Itemset
}

// Mine implements assoc.Miner.
func (s *SETM) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return s.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (s *SETM) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	// Pass 1: occurrence tuples for frequent single items.
	res, level, err := startResult(ctx, db, minSupport)
	if err != nil || len(level) == 0 {
		return res, err
	}
	res.Levels = append(res.Levels, level)

	freq1 := make(map[int]struct{}, len(level))
	for _, ic := range level {
		freq1[ic.Items[0]] = struct{}{}
	}
	var tuples []setmTuple
	for tid, tx := range db.Transactions {
		if tid%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, item := range tx {
			if _, ok := freq1[item]; ok {
				tuples = append(tuples, setmTuple{tid: tid, items: transactions.Itemset{item}})
			}
		}
	}

	for k := 2; len(tuples) > 0; k++ {
		// Join L̄k-1 with the transaction table on tid: extend each
		// occurrence by every transaction item after its maximum.
		var next []setmTuple
		counts := make(map[string]int)
		for ti, tu := range tuples {
			if ti%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			tx := db.Transactions[tu.tid]
			maxItem := tu.items[len(tu.items)-1]
			start := sort.SearchInts(tx, maxItem+1)
			for _, item := range tx[start:] {
				ext := make(transactions.Itemset, len(tu.items)+1)
				copy(ext, tu.items)
				ext[len(tu.items)] = item
				next = append(next, setmTuple{tid: tu.tid, items: ext})
				counts[ext.Key()]++
			}
		}
		// Aggregate to counts, filter, and keep only occurrences of
		// frequent candidates (the SQL HAVING + join back).
		level = nil
		for key, c := range counts {
			if c >= res.MinCount {
				level = append(level, assoc.ItemsetCount{Items: parseKey(key), Count: c})
			}
		}
		sortLevel(level)
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(counts), Frequent: len(level)})
		if len(level) == 0 {
			break
		}
		res.Levels = append(res.Levels, level)
		freqKeys := make(map[string]struct{}, len(level))
		for _, ic := range level {
			freqKeys[ic.Items.Key()] = struct{}{}
		}
		tuples = tuples[:0]
		for _, tu := range next {
			if _, ok := freqKeys[tu.items.Key()]; ok {
				tuples = append(tuples, tu)
			}
		}
	}
	return res, nil
}
