package reference

import (
	"context"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// DHP is the direct-hashing-and-pruning variant of Park, Chen & Yu
// (SIGMOD'95). Its pass 1 also hashes every 2-subset of every transaction
// into a bucket-count array; pass 2 then admits a pair of frequent items
// only if its bucket count reached the minimum support, which removes most
// of the usually enormous C2. The filter only over-approximates (colliding
// pairs share a bucket), so the result stays exact. From pass 3 on DHP is
// Apriori: assoc.AprioriGen, countCandidates, threshold.
//
// The paper's transaction trimming is what every countCandidates pass
// does (transactions.CountTids lays out only rows and items some candidate
// can use), not DHP's own.
type DHP struct {
	// NumBuckets sizes the pass-1 hash table; zero means 1<<16.
	NumBuckets int
}

// Name implements assoc.Miner.
func (d *DHP) Name() string { return "DHP" }

// Mine implements assoc.Miner.
func (d *DHP) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return d.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (d *DHP) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	buckets := d.NumBuckets
	if buckets <= 0 {
		buckets = 1 << 16
	}
	bucket := make([]int, buckets)
	res, level, err := startResult(ctx, db, minSupport, func(tx transactions.Itemset) {
		for i, a := range tx {
			for _, b := range tx[i+1:] {
				bucket[pairHash(a, b, buckets)]++
			}
		}
	})
	if err != nil {
		return res, err
	}
	// C2 is every pair of frequent items whose bucket reached minCount.
	var cands []transactions.Itemset
	for i, a := range level {
		for _, b := range level[i+1:] {
			x, y := a.Items[0], b.Items[0]
			if bucket[pairHash(x, y, buckets)] >= res.MinCount {
				cands = append(cands, transactions.Itemset{x, y})
			}
		}
	}
	for k := 2; len(level) > 0 && len(cands) > 0; k++ {
		res.Levels = append(res.Levels, level)
		counts, err := countCandidates(ctx, db, cands)
		if err != nil {
			return nil, err
		}
		level = frequentOf(cands, counts, res.MinCount)
		res.Passes = append(res.Passes, assoc.PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
		cands = assoc.AprioriGen(itemsetsOf(level))
	}
	if len(level) > 0 {
		res.Levels = append(res.Levels, level)
	}
	return res, nil
}

// pairHash is the paper-style order-independent pair hash.
func pairHash(a, b, buckets int) int {
	if a > b {
		a, b = b, a
	}
	return (a*2654435761 + b) % buckets
}
