package assoc

import (
	"context"
	"math/bits"

	"repro/internal/transactions"
)

// Apriori is the level-wise miner of Agrawal & Srikant (VLDB'94): the
// levelwise driver over this process's scans.
type Apriori struct {
	// Workers distributes every counting scan across this many goroutines
	// (count distribution: private per-worker counters over contiguous
	// database shards, merged after the pass). Values <= 1 run serially;
	// results are identical either way.
	Workers int

	hook PassHook
}

// Name implements Miner.
func (a *Apriori) Name() string { return "Apriori" }

// SetWorkers implements Engine.
func (a *Apriori) SetWorkers(n int) { a.Workers = n }

// SetPassHook implements Engine. Every emitted level is final.
func (a *Apriori) SetPassHook(h PassHook) { a.hook = h }

// Mine implements Miner.
func (a *Apriori) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (a *Apriori) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	emit := func(stat PassStat, level []ItemsetCount) { res.addPass(a.hook, stat, level) }
	if err := levelwise(ctx, scanLocal(db, db.NumItems(), a.Workers), minCount, res, emit); err != nil {
		return nil, err
	}
	return res, nil
}

// levelwise is the level-wise control loop — count, threshold, apriori-gen,
// repeat — written once against the scan source: Apriori runs it over
// local scans, Distributed over the coordinator's, and nothing else in the
// loop can differ between them. Levels are appended to res; every pass is
// reported through emit, which records it on res (the engines differ only
// in the hook they forward to and in how they stamp PassStat.Degraded).
func levelwise(ctx context.Context, src scanSource, minCount int, res *Result, emit PassHook) error {
	counts, err := src.countItems(ctx)
	if err != nil {
		return err
	}
	l1 := thresholdItems(counts, minCount)
	emit(PassStat{K: 1, Candidates: len(counts), Frequent: len(l1)}, l1)
	if len(l1) == 0 {
		return nil
	}
	l2, err := countL2(ctx, src, l1, len(counts), minCount)
	if err != nil {
		return err
	}
	return levelsFrom2(ctx, l1, l2, aprioriGen(itemsetsOf(l2)), minCount, res, emit, src)
}

// countL2 is the paper's pass-2 special case: C2 is the full join of L1
// (in item order, as thresholdItems emits it from a numItems-long pass-1
// array), so src counts it in a triangular array indexed by L1 rank — no
// tree needed — and the frequent pairs come back in lexicographic order.
// Fewer than two frequent items count nothing.
func countL2(ctx context.Context, src scanSource, l1 []ItemsetCount, numItems, minCount int) ([]ItemsetCount, error) {
	n := len(l1)
	if n < 2 {
		return nil, ctx.Err()
	}
	rank := l1Ranks(l1, numItems)
	pairs, err := src.countPairs(ctx, rank, n)
	if err != nil {
		return nil, err
	}
	return thresholdTriangle(l1, rank, n, pairs, minCount, nil), nil
}

// levelsFrom2 continues a level-wise mine whose first two passes are
// counted: it records L1, emits pass 2 (n(n-1)/2 candidates over n
// frequent items) with L2, and runs levelsFrom3 from L2 and its candidates
// c3.
func levelsFrom2(ctx context.Context, l1, l2 []ItemsetCount, c3 []transactions.Itemset, minCount int, res *Result, emit PassHook, src scanSource) error {
	res.Levels = append(res.Levels, l1)
	n := len(l1)
	emit(PassStat{K: 2, Candidates: n * (n - 1) / 2, Frequent: len(l2)}, l2)
	return levelsFrom3(ctx, l2, c3, minCount, res, emit, src)
}

// levelsFrom3 is pass k >= 3 of every level-wise engine, written once:
// from L2 and its candidates C3 = aprioriGen(L2) on, it appends each
// non-empty level to res, counts the level's candidates with src's
// pass-k scan, thresholds, sorts, emits and generates the next
// candidates, until a level or its candidate set comes out empty. A count
// error ends the loop and is returned as is.
func levelsFrom3(ctx context.Context, level []ItemsetCount, cands []transactions.Itemset, minCount int, res *Result, emit PassHook, src scanSource) error {
	for k := 3; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Levels = append(res.Levels, level)
		if len(cands) == 0 {
			break
		}
		counts, err := src.countCandidates(ctx, k, cands)
		if err != nil {
			return err
		}
		level = frequentOf(cands, counts, minCount)
		emit(PassStat{K: k, Candidates: len(cands), Frequent: len(level)}, level)
		cands = aprioriGen(itemsetsOf(level))
	}
	return nil
}

// frequentOf keeps the candidates whose count reaches minCount, in
// lexicographic order.
func frequentOf(cands []transactions.Itemset, counts []int32, minCount int) []ItemsetCount {
	var level []ItemsetCount
	for i, cand := range cands {
		if c := int(counts[i]); c >= minCount {
			level = append(level, ItemsetCount{Items: cand, Count: c})
		}
	}
	sortLevel(level)
	return level
}

// thresholdItems filters a pass-1 count array to L1, in item order. The
// singletons share one backing array, each clamped to its own slot, as
// thresholdTriangle's pairs do.
func thresholdItems(counts []int32, minCount int) []ItemsetCount {
	n := 0
	for _, c := range counts {
		if int(c) >= minCount {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ItemsetCount, 0, n)
	flat := make(transactions.Itemset, n)
	for item, c := range counts {
		if int(c) >= minCount {
			i := len(out)
			flat[i] = item
			out = append(out, ItemsetCount{Items: flat[i : i+1 : i+1], Count: int(c)})
		}
	}
	return out
}

// l1Ranks builds the item-id -> L1-rank map of the triangular pass-2 scan
// (-1 marks infrequent items). l1 is in item order, as thresholdItems
// emits.
func l1Ranks(l1 []ItemsetCount, numItems int) []int {
	rank := make([]int, numItems)
	for i := range rank {
		rank[i] = -1
	}
	for r, ic := range l1 {
		rank[ic.Items[0]] = r
	}
	return rank
}

// thresholdTriangle filters a triangular pair-count array over n ranks to
// the frequent pairs of l1's items, which rank maps into it (every item of
// l1 must have a rank). Ranks ascend with item id: countL2 ranks exactly
// l1, the maintainer the L1 of its last rebuild, which may hold items
// that have since left l1. Slots run row by row, one contiguous run of
// counters per rank, so the pairs come out in lexicographic order; they
// share one backing array. marked nil reads every slot, skipping the rows
// of ranks whose item is not in l1. Otherwise marked is a bitset over the
// slots that holds every slot whose count reaches minCount (the
// maintainer's passing slots), and only its set bits are read. Either way
// a slot is a hit when its count reaches minCount and both its ranks'
// items are in l1.
func thresholdTriangle(l1 []ItemsetCount, rank []int, n int, counts []int32, minCount int, marked []uint64) []ItemsetCount {
	item := make([]int, n) // rank -> item of l1, -1 when the rank's item is not in l1
	for r := range item {
		item[r] = -1
	}
	for _, ic := range l1 {
		item[rank[ic.Items[0]]] = ic.Items[0]
	}
	var hits [][2]int32 // the rank pairs that pass, in slot order
	// hit takes a slot of ranks r < s whose count reaches minCount and
	// whose row r's item is in l1.
	hit := func(r, s int) {
		if item[s] >= 0 {
			hits = append(hits, [2]int32{int32(r), int32(s)})
		}
	}
	if marked == nil {
		row := counts
		for r := range item {
			cells := row[:n-r-1] // the pairs (r, r+1) .. (r, n-1)
			row = row[n-r-1:]
			if item[r] < 0 {
				continue
			}
			for j, c := range cells {
				if int(c) >= minCount {
					hit(r, r+1+j)
				}
			}
		}
	} else {
		r, start := 0, 0 // the row of the slot at hand, and the row's first slot
		for w, word := range marked {
			for ; word != 0; word &= word - 1 {
				at := w<<6 | bits.TrailingZeros64(word)
				for at >= start+n-r-1 {
					start += n - r - 1
					r++
				}
				if int(counts[at]) >= minCount && item[r] >= 0 {
					hit(r, r+1+at-start)
				}
			}
		}
	}
	if len(hits) == 0 {
		return nil
	}
	out := make([]ItemsetCount, len(hits))
	flat := make(transactions.Itemset, 2*len(hits))
	for i, h := range hits {
		r, s := int(h[0]), int(h[1])
		pair := flat[2*i : 2*i+2 : 2*i+2]
		pair[0], pair[1] = item[r], item[s]
		out[i] = ItemsetCount{Items: pair, Count: int(counts[transactions.TriIndex(n, r, s)])}
	}
	return out
}
