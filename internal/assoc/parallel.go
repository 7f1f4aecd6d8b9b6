package assoc

// The local scan source: count distribution over goroutines, with the
// pass-2 triangle shared.
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
// item counters (pass 1), one counter per candidate (pass 3+) and the
// per-shard FP-tree forest — behind scanSource, the seam the two mining
// drivers are written against. Pass 2 is the exception: its triangle is
// the largest array a mine allocates, so the workers share one, and each
// counts, over every row, only the pairs whose lower rank lies in its own
// band of triangle rows (Agrawal & Shafer's candidate distribution,
// applied to pass 2 alone). No two workers write one counter and nothing
// is folded; the price is that every worker reads every row. At 2 workers
// on 80k Quest T10.I4 rows with 984 ranks, that pass took 28.7 ms of CPU
// against 31.6 ms for private triangles and their fold (medians of four
// runs of 20 passes on a 2-core host), so the second read of each row
// costs less than the fold it replaces; more cores were not measured.
// Passes k >= 3 lay each shard's rows out once per mine, at C3
// (transactions.Layout), and every later pass counts from that layout, so
// the rows are walked once rather than once per pass.
//
// The arithmetic is not here: it is transactions.CountItems/CountPairs,
// the tid-bitset block kernel behind transactions.Layout and CountTids,
// and fptree.Build per shard (the shard trees are handed on unmerged, as
// a forest), the same kernels the dist workers run. workers <= 1 runs the
// identical scan inline with no goroutines.
//
// Every scan takes a context and honours cancellation: scan loops poll
// ctx every ctxStride transactions (a layout's build and count once per
// block of at most 4096 rows and every 4096 candidates within one) and
// bail out early, workers drain through the same poll (no goroutine
// outlives its scan), and the scan returns ctx.Err() instead of partial
// counts. Under context.Background() the poll is a nil check per stride —
// free.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// ctxStride is how many transactions a counting scan processes between
// context polls. Cancellation is therefore detected within one stride per
// worker, while the poll cost is amortised to nothing on the hot path.
const ctxStride = 1024

// forEachWorker runs fn(w) for every w below workers, each on its own
// goroutine, and waits for all of them; workers <= 1 calls fn(0) inline.
// The returned error is ctx.Err() observed after every worker has exited,
// so a cancelled scan surfaces the cancellation instead of partial counts
// and never leaks a goroutine.
func forEachWorker(ctx context.Context, workers int, fn func(w int)) error {
	if workers <= 1 {
		fn(0)
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// forEachIndex runs fn(w, i) once for every i below n. The indices are
// pulled in order from one shared cursor by min(workers, n) workers over
// forEachWorker, and w names the worker pulling i, so fn can keep scratch
// per worker. ctx is polled before every index, so a cancelled loop stops
// within one fn call per worker and returns ctx.Err(). workers <= 1 runs
// the loop inline.
func forEachIndex(ctx context.Context, n, workers int, fn func(w, i int)) error {
	var cursor atomic.Int64
	return forEachWorker(ctx, min(workers, n), func(w int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			fn(w, i)
		}
	})
}

// forEachShard runs fn once per shard on its own goroutine (at most
// workers of them), as forEachWorker does. The shard index, always below
// the workers cap, lets fn address a private counter buffer. workers <= 1
// calls fn inline on a single whole-database shard.
func forEachShard(ctx context.Context, db *transactions.DB, workers int, fn func(shard int, sh transactions.Shard)) error {
	if workers <= 1 {
		fn(0, transactions.Shard{Transactions: db.Transactions})
		return ctx.Err()
	}
	shards := db.Shards(workers)
	return forEachWorker(ctx, len(shards), func(i int) { fn(i, shards[i]) })
}

// countSharded is the common case: scan fills a private int32 counter
// array of length n from one shard, and the per-shard counters are folded
// by addition. The scan callback is responsible for polling ctx (use
// ctxStride).
func countSharded(ctx context.Context, db *transactions.DB, workers, n int, scan func(sh transactions.Shard, counts []int32)) ([]int32, error) {
	parts := make([][]int32, max(workers, 1))
	if err := forEachShard(ctx, db, workers, func(shard int, sh transactions.Shard) {
		parts[shard] = make([]int32, n)
		scan(sh, parts[shard])
	}); err != nil {
		return nil, err
	}
	return foldCounts(parts), nil
}

// foldCounts sums per-shard count arrays into the first and returns it, so
// a scan allocates one array per shard and no merged one. Callers size
// parts to the worker cap; a database with fewer transactions yields fewer
// shards, and the nil tails are skipped. Shard 0 always exists: every
// engine rejects an empty database before its first scan. A sum cannot
// wrap: the shards tile a store of at most math.MaxInt32 transactions
// (transactions.ErrTooManyTransactions).
func foldCounts(parts [][]int32) []int32 {
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
// partial merge. Counts are int32, the one counter width of local scans,
// dist workers and the maintainer's totals.
type scanSource interface {
	// countItems is the pass-1 scan: per-item occurrence counts, one
	// counter per item of the universe.
	countItems(ctx context.Context) ([]int32, error)
	// countPairs is the triangular pass-2 scan: rank maps item id to L1
	// rank (-1 for infrequent items) and the result is the n*(n-1)/2
	// pair array over ranks (transactions.TriIndex).
	countPairs(ctx context.Context, rank []int, n int) ([]int32, error)
	// countCandidates is the pass-k (k >= 3) scan; the counts are indexed
	// like cands.
	countCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int32, error)
	// buildTree is pattern growth's second scan: the FP-trees of the
	// database's parts under the shared rank table, as one forest.
	buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error)
}

// localScans is the in-process scanSource of one mine: each scan shards
// db across workers goroutines (count distribution) and merges by integer
// addition, except pass 2, which shares one triangle by bands; workers <=
// 1 scans inline. numItems sizes the pass-1 array — db's own universe,
// except when a degraded distributed mine or the maintainer's full run
// counts under a universe of its own. layouts holds each shard's rows as
// the first pass k >= 3 laid them out, for the passes after it.
type localScans struct {
	db       *transactions.DB
	numItems int
	workers  int
	layouts  []*transactions.Layout
}

// scanLocal returns the local scan source of one mine over db, counting
// under a universe of numItems items. It is the one constructor, so every
// local mine lays its rows out once.
func scanLocal(db *transactions.DB, numItems, workers int) *localScans {
	return &localScans{db: db, numItems: numItems, workers: workers, layouts: make([]*transactions.Layout, max(workers, 1))}
}

func (s *localScans) countItems(ctx context.Context) ([]int32, error) {
	return countSharded(ctx, s.db, s.workers, s.numItems, func(sh transactions.Shard, counts []int32) {
		for off, tx := range sh.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			transactions.CountItems(tx, counts)
		}
	})
}

// countPairs is pass 2 over one shared triangle: worker w reads every row
// and counts the pairs whose lower rank lies in its band of rows
// (pairBands), so the workers write disjoint counters and there is no
// fold.
func (s *localScans) countPairs(ctx context.Context, rank []int, n int) ([]int32, error) {
	base := transactions.TriBases(n)
	counts := make([]int32, n*(n-1)/2)
	bands := pairBands(n, max(s.workers, 1))
	if err := forEachWorker(ctx, len(bands)-1, func(w int) {
		lo, hi := bands[w], bands[w+1]
		if lo == hi {
			return
		}
		ranks := make([]int, 0, 64)
		for off, tx := range s.db.Transactions {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return
			}
			ranks = transactions.CountPairs(tx, rank, base, lo, hi, counts, ranks)
		}
	}); err != nil {
		return nil, err
	}
	return counts, nil
}

// pairBands splits the n rows of a rank triangle into workers bands,
// band w being rows [b[w], b[w+1]), of about equal counter area: row i
// holds the n-1-i pairs (i, j > i). With fewer rows than workers some
// bands are empty.
func pairBands(n, workers int) []int {
	b := make([]int, workers+1)
	total, row, area := n*(n-1)/2, 0, 0
	for w := 1; w < workers; w++ {
		for row < n && area*workers < total*w {
			area += n - 1 - row
			row++
		}
		b[w] = row
	}
	b[workers] = n
	return b
}

// countCandidates is the pass-k (k >= 3) scan: cands, ranked once
// (transactions.NewCandidates), are counted over every shard into private
// counters from the shard's layout, and the counters are folded. The first
// call lays each shard out for its cands (C3 in a level-wise mine); a
// later list the layout does not cover still counts exactly
// (transactions.Layout.Count). On cancellation nothing is merged, so a
// caller that (wrongly) ignored the error could never observe partial
// counts, and a shard whose layout was cut short is laid out again by the
// next call.
func (s *localScans) countCandidates(ctx context.Context, _ int, cands []transactions.Itemset) ([]int32, error) {
	c, err := transactions.NewCandidates(cands, s.numItems)
	if err != nil {
		return nil, err
	}
	parts := make([][]int32, max(s.workers, 1))
	if err := forEachShard(ctx, s.db, s.workers, func(shard int, sh transactions.Shard) {
		if s.layouts[shard] == nil {
			l, err := transactions.NewLayout(ctx, c, sh.Transactions)
			if err != nil {
				return
			}
			s.layouts[shard] = l
		}
		counts := make([]int32, len(cands))
		if s.layouts[shard].Count(ctx, c, counts) == nil {
			parts[shard] = counts
		}
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
func (s *localScans) buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error) {
	trees := make([]*fptree.Tree, max(s.workers, 1))
	if err := forEachShard(ctx, s.db, s.workers, func(shard int, sh transactions.Shard) {
		trees[shard] = fptree.Build(sh.Transactions, ranks)
	}); err != nil {
		return fptree.Forest{}, err
	}
	return fptree.NewForest(ranks, trees...), nil
}
