package assoc

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// FPGrowth is the pattern-growth miner of Han, Pei & Yin (SIGMOD 2000) —
// the candidate-free counterpart of the level-wise family: instead of
// generating and counting candidate sets pass by pass, it compresses the
// database into an FP-tree (internal/fptree) and grows frequent itemsets
// by recursive conditional projection. At low support this sidesteps the
// candidate explosion entirely, which is what dmbench -exp P3 measures.
//
// FPGrowth is the growth driver over this process's scans. The tree build
// follows the shard → count → merge contract: with Workers > 1 each worker
// builds a private tree over one contiguous shard, and the shard trees are
// mined together as a forest — the merge is the integer addition each
// first-level projection does over every tree's header chain, so the
// counts are bit-identical to a single-threaded build. Mining fans
// the per-item conditional projections out across workers (each frequent
// item's patterns are disjoint from every other's), with a single-path
// shortcut that enumerates subset patterns without further projection and
// a per-worker fptree.Scratch recycling buffers and conditional trees
// across the recursion. Results are byte-identical to Apriori's in
// canonical order, a property the tests pin at workers 1, 2 and 8.
type FPGrowth struct {
	// Workers bounds the goroutines used for the pass-1 count scan, the
	// per-shard tree builds and the per-item projection fan-out; <= 1 runs
	// serially with identical results.
	Workers int

	hook PassHook
}

// Name implements Miner.
func (f *FPGrowth) Name() string { return "FPGrowth" }

// SetWorkers implements Engine.
func (f *FPGrowth) SetWorkers(n int) { f.Workers = n }

// SetPassHook implements Engine. Pattern growth assembles levels
// only after all projections finish, so the pass-1 event carries a nil
// level and later passes are emitted in one burst at the end.
func (f *FPGrowth) SetPassHook(h PassHook) { f.hook = h }

// Mine implements Miner.
func (f *FPGrowth) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return f.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (f *FPGrowth) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	emit := func(stat PassStat, level []ItemsetCount) { res.addPass(f.hook, stat, level) }
	if err := growth(ctx, scanLocal(db, db.NumItems(), f.Workers), minCount, f.Workers, res, emit); err != nil {
		return nil, err
	}
	return res, nil
}

// growth is the pattern-growth sequence — count items, build the FP-tree
// forest, grow patterns over it — written once against the scan source:
// FPGrowth runs the two database scans locally, Distributed on the
// coordinator's workers, and the growth phase always runs in this process
// over up to workers goroutines. Levels are assembled into res; passes are
// reported through emit like levelwise's.
func growth(ctx context.Context, src scanSource, minCount, workers int, res *Result, emit PassHook) error {
	counts, err := src.countItems(ctx)
	if err != nil {
		return err
	}
	ranks := fptree.NewRanks(counts, minCount)
	emit(PassStat{K: 1, Candidates: len(counts), Frequent: ranks.Len()}, nil)
	return growFrom(ctx, src, ranks, minCount, workers, res, emit)
}

// growFrom is pattern growth past pass 1: build the FP-tree forest under
// ranks, grow the patterns and assemble them into res. Auto enters here
// with ranks from the pass-1 counts it has already scanned.
func growFrom(ctx context.Context, src scanSource, ranks *fptree.Ranks, minCount, workers int, res *Result, emit PassHook) error {
	if ranks.Len() == 0 {
		return nil
	}
	forest, err := src.buildTree(ctx, ranks)
	if err != nil {
		return err
	}
	perRank, err := minePerRank(ctx, forest, minCount, workers)
	if err != nil {
		return err
	}
	assembleGrowthLevels(res, emit, perRank)
	return nil
}

// assembleGrowthLevels groups the per-rank pattern buckets by itemset
// length into canonical sorted levels. The buckets are disjoint, so
// concatenation order cannot change the sorted levels — workers (and, for
// the distributed engine, shard placement) only affect wall-clock time.
// Each level's pass is emitted once the level is sorted, i.e. final.
func assembleGrowthLevels(res *Result, emit PassHook, perRank [][]ItemsetCount) {
	for _, bucket := range perRank {
		for _, ic := range bucket {
			k := len(ic.Items)
			for len(res.Levels) < k {
				res.Levels = append(res.Levels, nil)
			}
			res.Levels[k-1] = append(res.Levels[k-1], ic)
		}
	}
	if len(res.Levels) == 0 {
		return
	}
	for k := 2; k <= len(res.Levels); k++ {
		sortLevel(res.Levels[k-1])
		// Pattern growth generates no candidate sets; the per-pass stat
		// mirrors the frequent count so pass tables stay comparable.
		emit(PassStat{K: k, Candidates: len(res.Levels[k-1]), Frequent: len(res.Levels[k-1])}, res.Levels[k-1])
	}
	sortLevel(res.Levels[0])
}

// minePerRank mines every frequent item's conditional patterns, returning
// one bucket per rank. With workers > 1 the ranks are pulled by workers
// from an atomic cursor — each rank's patterns are independent given the
// read-only forest, so this is the projection analogue of count
// distribution. Workers poll ctx per rank (and growPatterns polls per
// projection), so cancellation surfaces within one conditional mine.
func minePerRank(ctx context.Context, forest fptree.Forest, minCount, workers int) ([][]ItemsetCount, error) {
	ranks := forest.Ranks()
	n := ranks.Len()
	perRank := make([][]ItemsetCount, n)
	mineOne := func(rk int, s *fptree.Scratch) {
		var out []ItemsetCount
		item := int(ranks.Items[rk])
		out = append(out, ItemsetCount{
			Items: transactions.Itemset{item},
			Count: forest.Total(int32(rk)),
		})
		cond := forest.Project(int32(rk), minCount, s)
		if !cond.Empty() {
			out = growPatterns(ctx, cond, minCount, []int{item}, s, out)
		}
		s.Release(cond)
		perRank[rk] = out
	}

	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := fptree.NewScratch(ranks)
		for rk := 0; rk < n; rk++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mineOne(rk, s)
		}
		return perRank, ctx.Err()
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := fptree.NewScratch(ranks)
			for {
				rk := int(cursor.Add(1)) - 1
				if rk >= n || ctx.Err() != nil {
					return
				}
				mineOne(rk, s)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return perRank, nil
}

// growPatterns recursively mines a conditional tree: suffix is the pattern
// mined so far (item ids, in growth order — emitted itemsets are
// re-sorted canonically), out accumulates the results. The single-path
// shortcut replaces the recursion with subset enumeration as soon as the
// conditional tree degenerates to one chain. ctx is polled once per
// projection: a cancelled mine stops descending and its partial bucket is
// discarded by minePerRank's caller.
func growPatterns(ctx context.Context, t *fptree.Tree, minCount int, suffix []int, s *fptree.Scratch, out []ItemsetCount) []ItemsetCount {
	if ctx.Err() != nil {
		return out
	}
	ranks := t.Ranks()
	if path, pcounts, ok := t.SinglePath(s); ok {
		return emitPathSubsets(ranks, path, pcounts, suffix, out)
	}
	// Least-frequent first, mirroring the paper's bottom-up header sweep.
	// Present lists only the pattern base's surviving ranks, so the sweep
	// is O(ranks in this conditional tree), not O(|L1|).
	present := t.Present()
	for i := len(present) - 1; i >= 0; i-- {
		rk := present[i]
		total := t.Total(rk)
		pattern := append(suffix, int(ranks.Items[rk]))
		out = append(out, ItemsetCount{Items: transactions.NewItemset(pattern...), Count: total})
		cond := t.Project(rk, minCount, s)
		if !cond.Empty() {
			out = growPatterns(ctx, cond, minCount, pattern, s, out)
		}
		s.Release(cond)
	}
	return out
}

// emitPathSubsets emits suffix ∪ S for every non-empty subset S of a
// single-path tree's chain. Counts are non-increasing down the chain, so a
// subset's exact support is its deepest member's count — no projections
// needed. The chain items are all frequent in this conditional context, so
// every emitted pattern meets minCount by construction.
func emitPathSubsets(ranks *fptree.Ranks, path []int32, pcounts []int, suffix []int, out []ItemsetCount) []ItemsetCount {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		for i := start; i < len(path); i++ {
			next := append(cur, int(ranks.Items[path[i]]))
			out = append(out, ItemsetCount{Items: transactions.NewItemset(next...), Count: pcounts[i]})
			rec(i+1, next)
		}
	}
	rec(0, suffix)
	return out
}
