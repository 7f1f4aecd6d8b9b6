package assoc

import (
	"context"
	"sync/atomic"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Auto mines each database with the engine family it favours, deciding
// from quantities the mine has already measured instead of from a probe of
// its own, so no scan runs twice:
//
//   - Pass 1, the item count, is shared. Genuinely dense frequent items
//     (mean tid-list density >= AutoDensityCutoff over at least
//     AutoMinDenseItems of them) go to Eclat: word-wise AND + popcount
//     intersections win on dense data.
//   - Otherwise pass 2 runs as Apriori's triangular scan, provided the
//     triangle fits autoMaxPairs counters (one triangle per mine, whatever
//     the worker count), and C3 = apriori-gen(L2) is generated, which
//     needs no scan. With at most
//     autoMaxC3 candidates the mine goes on level-wise from C3 and is
//     Apriori's from there on.
//   - A larger C3, or a triangle past the bound, hands the pass-1 counts to
//     pattern growth over the same scans, and the mine is FPGrowth's from
//     there on. L2 still pays its way there: the FP-trees leave out every
//     item of no frequent pair. A call that should have gone the other way
//     costs the pass-2 scan, not a second engine run.
//
// Every engine returns identical results, so the choice moves only
// wall-clock time — bench reports what a wrong one costs as
// assoc.auto_regret.* — and the registry equivalence tests cover Auto like
// any other miner. Pass stats and hook events are those of the engine the
// mine became (Selected names it); on the growth path the pass-1 event
// carries L1, which is final by then.
type Auto struct {
	// Workers bounds the goroutines of every scan and of the engine the
	// mine becomes.
	Workers int

	hook     PassHook
	selected atomic.Value // string: engine name of the last Mine
}

// AutoDensityCutoff is the mean frequent-item density above which Auto
// prefers Eclat: the point where the workload is dense enough for vertical
// bitset intersections to beat the other engine families outright.
const AutoDensityCutoff = 1.0 / 16

// AutoMinDenseItems is the minimum frequent-item count for the dense arm:
// below it every engine is scan-bound and tiny databases would otherwise
// read as "dense" by ratio alone.
const AutoMinDenseItems = 8

// autoMaxC3 is the largest C3 Auto still mines level-wise. Past pass 2
// both families cost in proportion to the database's frequent-item
// occurrences — growth builds and projects the FP-tree over them, each
// pass k >= 3 sets them as tid-bitsets (from the rows laid out once at C3)
// and ANDs them per candidate — so the crossover is a candidate count
// rather than a share of |D|. Measured at 2 workers, before the layout
// made each pass k >= 3 cheaper (which can only move the crossover up),
// Apriori's time over FPGrowth's at the last C3 level-wise won and the
// first it lost:
//
//	shape                    won at C3       lost at C3
//	T5.I2, 80k rows          22,279 (0.94)   57,836 (1.87)
//	T10.I4, 20k rows         16,154 (0.92)   41,006 (1.50)
//	T10.I4, 80k rows         41,907 (0.88)   68,621 (1.26)
//	T20.I6, 40k rows         77,233 (0.81)   250,313 (1.86)
//	120-item dense universe  37,730 (0.70)   49,589 (1.42)
//
// Near the crossover one run differs from the next by about 0.1: T5.I2 at
// 22,279 also read 1.01. Level-wise won every measured C3 up to 16k on
// every shape, so the bound sits there, below the earliest loss.
const autoMaxC3 = 1 << 14

// autoMaxPairs bounds the pass-2 triangle, in counters, that Auto counts
// before deciding (16 MiB of int32): a frequent universe larger than that
// goes to pattern growth without a pass 2. The workers share one
// triangle, so the bound is per mine; when each worker had a private one
// it was per worker, and the value was kept.
const autoMaxPairs = 1 << 22

// Name implements Miner.
func (a *Auto) Name() string { return "Auto" }

// SetWorkers implements Engine.
func (a *Auto) SetWorkers(n int) { a.Workers = n }

// SetPassHook implements Engine; the events are those of the engine the
// mine becomes.
func (a *Auto) SetPassHook(h PassHook) { a.hook = h }

// Selected returns the name of the engine the last Mine became ("" before
// the first one). It is safe to read after a concurrent Mine.
func (a *Auto) Selected() string {
	if s, ok := a.selected.Load().(string); ok {
		return s
	}
	return ""
}

// Mine implements Miner.
func (a *Auto) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner: adaptive over this process's scans, or
// Eclat when adaptive finds the frequent items dense.
func (a *Auto) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	emit := func(stat PassStat, level []ItemsetCount) { res.addPass(a.hook, stat, level) }
	engine, err := adaptive(ctx, scanLocal(db, db.NumItems(), a.Workers), db.Len(), minCount, a.Workers, res, emit)
	if engine != "" {
		a.selected.Store(engine)
	}
	if err != nil {
		return nil, err
	}
	if engine == "Eclat" {
		return (&Eclat{Workers: a.Workers, hook: a.hook}).MineContext(ctx, db, minSupport)
	}
	return res, nil
}

// adaptive is Auto's driver over src: pass 1, then — unless the frequent
// items are dense — pass 2 and C3, then the level-wise loop from C3 or
// pattern growth from the pass-1 counts, as the Auto doc describes. It
// returns the name of the engine whose mine it became ("" if it failed
// before deciding). "Eclat" means nothing was mined or emitted: Eclat
// builds its own vertical layout.
func adaptive(ctx context.Context, src scanSource, numTx, minCount, workers int, res *Result, emit PassHook) (string, error) {
	counts, err := src.countItems(ctx)
	if err != nil {
		return "", err
	}
	l1 := thresholdItems(counts, minCount)
	if dense(l1, numTx) {
		return "Eclat", nil
	}
	emit(PassStat{K: 1, Candidates: len(counts), Frequent: len(l1)}, l1)
	if len(l1) == 0 {
		return "Apriori", nil
	}
	grown := counts
	if n := len(l1); n*(n-1)/2 <= autoMaxPairs {
		l2, err := countL2(ctx, src, l1, len(counts), minCount)
		if err != nil {
			return "", err
		}
		if c3, ok := aprioriGenUpTo(itemsetsOf(l2), autoMaxC3); ok {
			return "Apriori", levelsFrom2(ctx, l1, l2, c3, minCount, res, emit, src)
		}
		// An item in no frequent pair extends no frequent itemset, so the
		// FP-trees leave it out; its singleton is already in L1.
		grown = make([]int32, len(counts))
		for _, ic := range l2 {
			for _, item := range ic.Items {
				grown[item] = counts[item]
			}
		}
	}
	if err := growFrom(ctx, src, fptree.NewRanks(grown, minCount), minCount, workers, res, emit); err != nil {
		return "FPGrowth", err
	}
	res.Levels[0] = l1
	return "FPGrowth", nil
}

// dense reports Auto's Eclat arm: at least AutoMinDenseItems frequent
// items whose mean tid-list density over numTx transactions reaches
// AutoDensityCutoff.
func dense(l1 []ItemsetCount, numTx int) bool {
	if len(l1) < AutoMinDenseItems {
		return false
	}
	tids := 0
	for _, ic := range l1 {
		tids += ic.Count
	}
	return float64(tids)/float64(len(l1)*numTx) >= AutoDensityCutoff
}
