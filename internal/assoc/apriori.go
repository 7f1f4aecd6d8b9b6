package assoc

import (
	"context"

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
	if err := levelwise(ctx, scanLocal(db, a.Workers), minCount, res, emit); err != nil {
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
	return levelsFrom2(ctx, l1, l2, aprioriGen(itemsetsOf(l2)), minCount, res, emit, src.countCandidates)
}

// countFunc counts the k-itemsets cands over the database, supports indexed
// like cands: a scan source's countCandidates, or the incremental
// maintainer's lookup in its totals.
type countFunc func(ctx context.Context, k int, cands []transactions.Itemset) ([]int, error)

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
	return thresholdTriangle(l1, rank, n, pairs, minCount), nil
}

// levelsFrom2 continues a level-wise mine whose first two passes are
// counted: it records L1, emits pass 2 (n(n-1)/2 candidates over n
// frequent items) with L2, and runs levelsFrom3 from L2 and its candidates
// c3.
func levelsFrom2(ctx context.Context, l1, l2 []ItemsetCount, c3 []transactions.Itemset, minCount int, res *Result, emit PassHook, count countFunc) error {
	res.Levels = append(res.Levels, l1)
	n := len(l1)
	emit(PassStat{K: 2, Candidates: n * (n - 1) / 2, Frequent: len(l2)}, l2)
	return levelsFrom3(ctx, l2, c3, minCount, res, emit, count)
}

// levelsFrom3 is pass k >= 3 of every level-wise engine, written once:
// from L2 and its candidates C3 = aprioriGen(L2) on, it appends each
// non-empty level to res, counts the level's candidates with count,
// thresholds, sorts, emits and generates the next candidates, until a
// level or its candidate set comes out empty. A count error ends the loop
// and is returned as is.
func levelsFrom3(ctx context.Context, level []ItemsetCount, cands []transactions.Itemset, minCount int, res *Result, emit PassHook, count countFunc) error {
	for k := 3; len(level) > 0; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Levels = append(res.Levels, level)
		if len(cands) == 0 {
			break
		}
		counts, err := count(ctx, k, cands)
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
func frequentOf(cands []transactions.Itemset, counts []int, minCount int) []ItemsetCount {
	var level []ItemsetCount
	for i, cand := range cands {
		if counts[i] >= minCount {
			level = append(level, ItemsetCount{Items: cand, Count: counts[i]})
		}
	}
	sortLevel(level)
	return level
}

// thresholdItems filters a pass-1 count array to L1, in item order.
func thresholdItems(counts []int, minCount int) []ItemsetCount {
	var out []ItemsetCount
	for item, c := range counts {
		if c >= minCount {
			out = append(out, ItemsetCount{Items: transactions.Itemset{item}, Count: c})
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
// l1 must have a rank). l1 is sorted by item id, so the pairs are emitted
// in lexicographic order.
func thresholdTriangle(l1 []ItemsetCount, rank []int, n int, counts []int, minCount int) []ItemsetCount {
	var out []ItemsetCount
	for a := range l1 {
		for b := a + 1; b < len(l1); b++ {
			x, y := l1[a].Items[0], l1[b].Items[0]
			if c := counts[transactions.TriIndex(n, rank[x], rank[y])]; c >= minCount {
				out = append(out, ItemsetCount{Items: transactions.Itemset{x, y}, Count: c})
			}
		}
	}
	return out
}

// countWithMap counts candidates by direct subset checks against an index
// of candidate keys — the global counting scan of the Partition and
// Sampling reference engines, serial like they are. To avoid enumerating
// all k-subsets of long transactions it checks each candidate against the
// transaction when the candidate set is small, and otherwise enumerates
// the transaction's subsets. The counted candidates come back in
// lexicographic order.
func countWithMap(ctx context.Context, db *transactions.DB, cands []transactions.Itemset, k int) ([]ItemsetCount, error) {
	idx := make(map[string]int, len(cands))
	out := make([]ItemsetCount, len(cands))
	for i, c := range cands {
		idx[c.Key()] = i
		out[i].Items = c
	}
	for tid, tx := range db.Transactions {
		if tid%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if len(tx) < k {
			continue
		}
		if choose(len(tx), k) <= len(cands) {
			forEachSubset(tx, k, func(sub transactions.Itemset) {
				if i, ok := idx[sub.Key()]; ok {
					out[i].Count++
				}
			})
		} else {
			for i, c := range cands {
				if tx.ContainsAll(c) {
					out[i].Count++
				}
			}
		}
	}
	sortLevel(out)
	return out, nil
}

// choose returns C(n, k) saturating at a large bound to avoid overflow.
func choose(n, k int) int {
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > 1<<30 {
			return 1 << 30
		}
	}
	return c
}

// forEachSubset calls fn for every k-subset of sorted set s. The callback
// receives a shared buffer; it must not retain it.
func forEachSubset(s transactions.Itemset, k int, fn func(transactions.Itemset)) {
	buf := make(transactions.Itemset, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(buf)
			return
		}
		for i := start; i <= len(s)-(k-depth); i++ {
			buf[depth] = s[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
