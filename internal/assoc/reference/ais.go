package reference

import (
	"context"
	"sort"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// AIS is the original association miner of Agrawal, Imielinski & Swami
// (SIGMOD'93), in its basic frontier form: candidates are generated on the
// fly while scanning, by extending each frequent (k-1)-itemset found in a
// transaction with every later item of that transaction. Because
// candidates are created per transaction rather than once per pass, AIS
// counts many candidates that Apriori's join/prune step would never
// generate — the inefficiency the VLDB'94 evaluation quantifies.
//
// The paper's memory-management refinements (candidate estimation and
// pruning functions) are omitted; they reduce constants but do not change
// the asymptotic picture the EXP-A1 benchmark reproduces.
type AIS struct{}

// Name implements assoc.Miner.
func (a *AIS) Name() string { return "AIS" }

// Mine implements assoc.Miner.
func (a *AIS) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (a *AIS) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	res, level, err := startResult(ctx, db, minSupport)
	if err != nil {
		return res, err
	}
	for k := 2; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		counts := make(map[string]int)
		// One scan: extend every frequent (k-1)-itemset contained in the
		// transaction by each transaction item greater than its maximum.
		frontier := itemsetsOf(level)
		for tid, tx := range db.Transactions {
			if tid%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if len(tx) < k {
				continue
			}
			for _, l := range frontier {
				if !tx.ContainsAll(l) {
					continue
				}
				maxItem := l[len(l)-1]
				// Items of tx after maxItem extend l.
				start := sort.SearchInts(tx, maxItem+1)
				for _, item := range tx[start:] {
					ext := make(transactions.Itemset, len(l)+1)
					copy(ext, l)
					ext[len(l)] = item
					counts[ext.Key()]++
				}
			}
		}
		level = nil
		for key, c := range counts {
			if c >= res.MinCount {
				level = append(level, assoc.ItemsetCount{Items: parseKey(key), Count: c})
			}
		}
		sortLevel(level)
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(counts), Frequent: len(level)})
	}
	return res, nil
}

// parseKey reverses Itemset.Key. Keys are produced internally, so malformed
// input cannot occur.
func parseKey(key string) transactions.Itemset {
	var out transactions.Itemset
	v := 0
	has := false
	for i := 0; i < len(key); i++ {
		if key[i] == ',' {
			out = append(out, v)
			v = 0
			has = false
			continue
		}
		v = v*10 + int(key[i]-'0')
		has = true
	}
	if has {
		out = append(out, v)
	}
	return out
}
