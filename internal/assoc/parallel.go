package assoc

// The local scan source: count distribution over goroutines.
//
// Every support-counting pass has the same shape: scan the transactions,
// accumulate counts into some structure, threshold. Count distribution
// (the classic parallelisation of Apriori) splits the database into
// contiguous shards, gives each worker a private copy of the counters,
// and merges the copies after the scan — no locks on the hot path, and
// the merged result is bit-identical to the serial scan because integer
// addition is commutative and the shards tile the database exactly.
//
// localScans holds the per-structure instantiations of that scheme — flat
// item counters (pass 1), the triangular pair array (pass 2), the
// candidate hash tree (pass 3+) and the per-shard FP-tree forest — behind
// scanSource, the seam the two mining drivers are written against. The
// arithmetic is not here: it is transactions.CountItems/CountPairs, the
// hash tree's trimmed scan (hashtree.CountAllInto) and fptree.Build per
// shard (the shard trees are handed on unmerged, as a forest), the same
// kernels the dist workers run. workers <= 1 runs the identical scan
// inline with no goroutines.
//
// Every scan takes a context and honours cancellation: scan loops poll
// ctx every ctxStride transactions and bail out early, workers drain
// through the same poll (no goroutine outlives its scan), and the scan
// returns ctx.Err() instead of partial counts. Under
// context.Background() the poll is a nil check per stride — free.

import (
	"context"
	"sync"

	"repro/internal/fptree"
	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// ctxStride is how many transactions a counting scan processes between
// context polls. Cancellation is therefore detected within one stride per
// worker, while the poll cost is amortised to nothing on the hot path.
const ctxStride = 1024

// forEachShard runs fn once per shard on its own goroutine (at most
// workers of them) and waits for all of them. The shard index, always
// below the workers cap, lets fn address a private counter buffer.
// workers <= 1 calls fn inline on a single whole-database shard. The
// returned error is ctx.Err() observed after every worker has exited, so
// a cancelled scan surfaces the cancellation instead of partial counts
// and never leaks a goroutine.
func forEachShard(ctx context.Context, db *transactions.DB, workers int, fn func(shard int, sh transactions.Shard)) error {
	if workers <= 1 {
		fn(0, transactions.Shard{Transactions: db.Transactions})
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for i, sh := range db.Shards(workers) {
		wg.Add(1)
		go func(i int, sh transactions.Shard) {
			defer wg.Done()
			fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	return ctx.Err()
}

// countShardedInts is the common case: scan fills a private []int counter
// of length n from one shard, and the per-shard counters are folded by
// addition. The scan callback is responsible for polling ctx (use
// ctxStride).
func countShardedInts(ctx context.Context, db *transactions.DB, workers, n int, scan func(sh transactions.Shard, counts []int)) ([]int, error) {
	parts := make([][]int, max(workers, 1))
	if err := forEachShard(ctx, db, workers, func(shard int, sh transactions.Shard) {
		parts[shard] = make([]int, n)
		scan(sh, parts[shard])
	}); err != nil {
		return nil, err
	}
	return foldCounts(parts), nil
}

// foldCounts sums per-shard count arrays into the first and returns it.
// Callers size parts to the worker cap; a database with fewer transactions
// yields fewer shards, and the nil tails are skipped. Shard 0 always
// exists: every engine rejects an empty database before its first scan.
func foldCounts(parts [][]int) []int {
	out := parts[0]
	for _, p := range parts[1:] {
		for i, c := range p {
			out[i] += c
		}
	}
	return out
}

// scanSource is the one thing that differs between mining in process and
// mining over a cluster: where the four database scans of a mine run. The
// level-wise driver (levelwise) and the pattern-growth driver (growth) are
// written once against it; localScans runs the scans on this process's
// goroutines, remoteScans (distributed.go) on a dist.Coordinator's workers.
// Every method returns exact whole-database totals or an error, never a
// partial merge.
type scanSource interface {
	// countItems is the pass-1 scan: per-item occurrence counts, one
	// counter per item of the universe.
	countItems(ctx context.Context) ([]int, error)
	// countPairs is the triangular pass-2 scan: rank maps item id to L1
	// rank (-1 for infrequent items) and the result is the n*(n-1)/2
	// pair array over ranks (transactions.TriIndex).
	countPairs(ctx context.Context, rank []int, n int) ([]int, error)
	// countCandidates is the pass-k (k >= 3) hash-tree scan; the counts
	// are indexed like cands.
	countCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int, error)
	// buildTree is pattern growth's second scan: the FP-trees of the
	// database's parts under the shared rank table, as one forest.
	buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error)
}

// localScans is the in-process scanSource: each scan shards db across
// workers goroutines (count distribution) and merges by integer addition;
// workers <= 1 scans inline. numItems sizes the pass-1 array — db's own
// universe, except when a degraded distributed mine carries over the
// universe its cluster was counting under.
type localScans struct {
	db       *transactions.DB
	numItems int
	workers  int
}

// scanLocal returns the local scan source over db's own item universe.
func scanLocal(db *transactions.DB, workers int) localScans {
	return localScans{db: db, numItems: db.NumItems(), workers: workers}
}

func (s localScans) countItems(ctx context.Context) ([]int, error) {
	return countShardedInts(ctx, s.db, s.workers, s.numItems, func(sh transactions.Shard, counts []int) {
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			transactions.CountItems(tx, counts)
		}
	})
}

func (s localScans) countPairs(ctx context.Context, rank []int, n int) ([]int, error) {
	return countShardedInts(ctx, s.db, s.workers, n*(n-1)/2, func(sh transactions.Shard, counts []int) {
		ranks := make([]int, 0, 64)
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			ranks = transactions.CountPairs(tx, rank, n, counts, ranks)
		}
	})
}

// countCandidates builds the candidate hash tree (hashtree.Build: entry
// ids equal candidate indices) and counts the database into it.
func (s localScans) countCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int, error) {
	tree, err := hashtree.Build(k, cands)
	if err != nil {
		return nil, err
	}
	return s.countTree(ctx, tree)
}

// countTree counts every shard into a private hashtree.CountBuffer with
// the tree's trimmed scan (CountAllInto, the loop the dist worker runs
// too), one ctxStride of transactions per call, and returns the folded
// counts by entry id — the tree itself is only read. On cancellation
// nothing is merged, so a caller that (wrongly) ignored the error could
// never observe partial counts.
func (s localScans) countTree(ctx context.Context, tree *hashtree.Tree) ([]int, error) {
	parts := make([][]int, max(s.workers, 1))
	if err := forEachShard(ctx, s.db, s.workers, func(shard int, sh transactions.Shard) {
		buf := tree.NewCountBuffer()
		for off := 0; off < len(sh.Transactions); off += ctxStride {
			if ctx.Err() != nil {
				return
			}
			end := min(off+ctxStride, len(sh.Transactions))
			tree.CountAllInto(sh.Transactions[off:end], sh.Base+off, buf)
		}
		parts[shard] = buf.Counts
	}); err != nil {
		return nil, err
	}
	return foldCounts(parts), nil
}

// buildTree builds one private FP-tree per shard. The trees are not merged:
// growth mines them as a forest, so the additions a merge would make
// serially happen inside the first-level projections instead. A database
// with fewer transactions than workers leaves the tail entries nil, which
// the forest skips.
func (s localScans) buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error) {
	trees := make([]*fptree.Tree, max(s.workers, 1))
	if err := forEachShard(ctx, s.db, s.workers, func(shard int, sh transactions.Shard) {
		trees[shard] = fptree.Build(sh.Transactions, ranks)
	}); err != nil {
		return fptree.Forest{}, err
	}
	return fptree.NewForest(ranks, trees...), nil
}
