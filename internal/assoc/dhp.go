package assoc

import (
	"context"

	"repro/internal/transactions"
)

// DHP is the direct-hashing-and-pruning variant of Park, Chen & Yu
// (SIGMOD'95). During pass 1 it additionally hashes every 2-subset of every
// transaction into a bucket-count array; pass 2 then admits a candidate
// pair only if both items are frequent AND its bucket count reached the
// minimum support, which removes most of the usually enormous C2, and
// counts the survivors in a hash tree (hashtree.Build, as for any pass k)
// rather than a triangle. From pass 3 on DHP runs Apriori's own loop
// (levelsFrom3): the same generation, hash-tree count and threshold.
//
// The paper's transaction trimming is not DHP's alone here: the pass-k scan
// every level-wise engine shares (hashtree.CountAllInto) drops, before the
// tree sees a transaction, every item that occurs in no candidate of the
// pass. It reduces constants on later passes without changing which
// candidates exist. Trimmed rows are not carried from pass to pass.
type DHP struct {
	// NumBuckets sizes the pass-1 hash table; zero means 1<<16.
	NumBuckets int
	// Workers distributes the counting scans (pass-1 histogram included)
	// across this many goroutines with per-worker counters merged after
	// each pass; <= 1 runs serially with identical results.
	Workers int

	hook PassHook
}

// Name implements Miner.
func (d *DHP) Name() string { return "DHP" }

// SetWorkers implements Engine.
func (d *DHP) SetWorkers(n int) { d.Workers = n }

// SetPassHook implements Engine. Every emitted level is final.
func (d *DHP) SetPassHook(h PassHook) { d.hook = h }

// Mine implements Miner.
func (d *DHP) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return d.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (d *DHP) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	buckets := d.NumBuckets
	if buckets <= 0 {
		buckets = 1 << 16
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	// Pass 1: item counts plus the pair-bucket histogram, count-distributed
	// across workers (each fills a private histogram pair, merged after).
	scan := func(sh transactions.Shard, ic, bc []int) {
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			transactions.CountItems(tx, ic)
			for i := 0; i < len(tx); i++ {
				for j := i + 1; j < len(tx); j++ {
					bc[pairHash(tx[i], tx[j], buckets)]++
				}
			}
		}
	}
	itemParts := make([][]int, max(d.Workers, 1))
	bucketParts := make([][]int, max(d.Workers, 1))
	if err := forEachShard(ctx, db, d.Workers, func(shard int, sh transactions.Shard) {
		itemParts[shard] = make([]int, db.NumItems())
		bucketParts[shard] = make([]int, buckets)
		scan(sh, itemParts[shard], bucketParts[shard])
	}); err != nil {
		return nil, err
	}
	bucket := foldCounts(bucketParts)
	level := thresholdItems(foldCounts(itemParts), minCount)
	res.addPass(d.hook, PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)}, level)
	if len(level) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, level)

	// Pass 2: candidate pairs pre-filtered by the bucket histogram, counted
	// in a hash tree; every later pass is the shared level-wise loop.
	var c2 []transactions.Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].Items[0], level[j].Items[0]
			if bucket[pairHash(a, b, buckets)] >= minCount {
				c2 = append(c2, transactions.Itemset{a, b})
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(c2) == 0 {
		return res, nil
	}
	scans := scanLocal(db, d.Workers)
	counts, err := scans.countCandidates(ctx, 2, c2)
	if err != nil {
		return nil, err
	}
	l2 := frequentOf(c2, counts, minCount)
	emit := func(stat PassStat, level []ItemsetCount) { res.addPass(d.hook, stat, level) }
	emit(PassStat{K: 2, Candidates: len(c2), Frequent: len(l2)}, l2)
	if err := levelsFrom3(ctx, l2, aprioriGen(itemsetsOf(l2)), minCount, res, emit, scans.countCandidates); err != nil {
		return nil, err
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
