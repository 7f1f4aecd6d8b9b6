package assoc

import (
	"context"
	"slices"
	"sort"

	"repro/internal/transactions"
)

// Eclat mines frequent itemsets in the vertical layout: candidate tid-sets
// are the intersections of their generators' tid-sets, so support counting
// needs no database rescans (Zaki et al.; the reference Partition engine
// runs it as its local phase, once per partition). Tid-sets are bitsets:
// an intersection is a word-wise AND with popcount support, which beat
// sorted tid-list merging 8-10x on sparse and dense fixtures alike.
type Eclat struct {
	// Workers distributes each level's candidate intersections across this
	// many goroutines, which pull left-join indices from one shared cursor
	// (forEachIndex); <= 1 runs inline with identical results.
	Workers int

	hook PassHook
}

// Name implements Miner.
func (e *Eclat) Name() string { return "Eclat" }

// SetWorkers implements Engine.
func (e *Eclat) SetWorkers(n int) { e.Workers = n }

// SetPassHook implements Engine. Levels are emitted nil: a level's
// ItemsetCounts are materialised one loop iteration after its pass stat,
// so consumers read the levels from the final Result.
func (e *Eclat) SetPassHook(h PassHook) { e.hook = h }

// eclatNode is one frequent itemset with its tid-set and support.
type eclatNode struct {
	items transactions.Itemset
	bits  *transactions.Bitset
	sup   int
}

// Mine implements Miner.
func (e *Eclat) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return e.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (e *Eclat) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}

	// One database scan builds the bitset vertical view directly.
	vert := db.ToVerticalBitset()
	items := make([]int, 0, len(vert.Bits))
	for item := range vert.Bits {
		items = append(items, item)
	}
	sort.Ints(items)
	var level []eclatNode
	for _, item := range items {
		bits := vert.Bits[item]
		if sup := bits.OnesCount(); sup >= minCount {
			level = append(level, eclatNode{items: transactions.Itemset{item}, bits: bits, sup: sup})
		}
	}
	res.addPass(e.hook, PassStat{K: 1, Candidates: db.NumItems(), Frequent: len(level)}, nil)

	for k := 1; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts := make([]ItemsetCount, len(level))
		for i, nd := range level {
			counts[i] = ItemsetCount{Items: nd.items, Count: nd.sup}
		}
		res.Levels = append(res.Levels, counts)

		next, candidates, err := e.joinLevel(ctx, level, minCount)
		if err != nil {
			return nil, err
		}
		if candidates > 0 {
			res.addPass(e.hook, PassStat{K: k + 1, Candidates: candidates, Frequent: len(next)}, nil)
		}
		level = next
	}
	return res, nil
}

// joinLevel produces the next level by joining equal-prefix node pairs and
// intersecting their tid-sets. The work is split by left-join index i
// (each i's joins are independent given the level snapshot), pulled from
// forEachIndex's cursor and reassembled in i order, so the output is
// identical at every worker count; cancellation surfaces within one i's
// joins.
func (e *Eclat) joinLevel(ctx context.Context, level []eclatNode, minCount int) ([]eclatNode, int, error) {
	perI := make([][]eclatNode, len(level))
	candsPerI := make([]int, len(level))
	if err := forEachIndex(ctx, len(level), e.Workers, func(_, i int) {
		// The joins and their count stay in locals and are stored once:
		// neighbouring perI / candsPerI slots share cache lines across
		// workers, and writing them per join cost ~5 % at 2 workers.
		var joins []eclatNode
		candidates := 0
		a := level[i]
		for j := i + 1; j < len(level); j++ {
			b := level[j]
			if !samePrefix(a.items, b.items, len(a.items)-1) {
				break
			}
			candidates++
			// Read-only count first: most joins are pruned, and a pruned
			// candidate should cost neither an allocation nor any word
			// writes. Survivors pay one more AND pass to materialise;
			// measured faster than a fused write-always scratch pass
			// because prunes dominate.
			sup := transactions.AndCount(a.bits, b.bits)
			if sup < minCount {
				continue
			}
			cand := make(transactions.Itemset, len(a.items)+1)
			copy(cand, a.items)
			cand[len(a.items)] = b.items[len(b.items)-1]
			joins = append(joins, eclatNode{items: cand, bits: transactions.AndBitset(a.bits, b.bits), sup: sup})
		}
		perI[i], candsPerI[i] = joins, candidates
	}); err != nil {
		return nil, 0, err
	}
	candidates := 0
	for _, c := range candsPerI {
		candidates += c
	}
	return slices.Concat(perI...), candidates, nil
}
