package assoc

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/transactions"
)

// Partition is the two-scan algorithm of Savasere, Omiecinski & Navathe
// (VLDB'95): the database is split into memory-sized partitions; each
// partition is mined completely with a local minimum support using vertical
// tid-list intersections; the union of local frequent itemsets is the
// global candidate set (any globally frequent itemset must be locally
// frequent in at least one partition); a second scan counts the global
// support of every candidate.
type Partition struct {
	// NumPartitions is the number of chunks; zero or one degenerates to a
	// single partition (still a correct, two-scan run).
	NumPartitions int
}

// Name implements Miner.
func (p *Partition) Name() string {
	if p.NumPartitions > 1 {
		return fmt.Sprintf("Partition(%d)", p.NumPartitions)
	}
	return "Partition"
}

// Mine implements Miner.
func (p *Partition) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return p.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (p *Partition) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	n := p.NumPartitions
	if n < 1 {
		n = 1
	}
	parts := db.Partition(n)

	// Phase 1: local frequent itemsets per partition, via tidlists. The
	// local minimum support is ceil(rel * partition size), matching the
	// paper's guarantee that a globally frequent itemset is locally
	// frequent somewhere.
	candidateKeys := make(map[string]transactions.Itemset)
	for _, part := range parts {
		local, err := mineVertical(ctx, part, part.AbsoluteSupport(minSupport))
		if err != nil {
			return nil, err
		}
		for _, is := range local {
			if _, ok := candidateKeys[is.Key()]; !ok {
				candidateKeys[is.Key()] = is
			}
		}
	}
	return p.countGlobal(ctx, db, candidateKeys, minCount)
}

// countGlobal is phase 2: count every candidate against the full database
// and assemble a Result.
func (p *Partition) countGlobal(ctx context.Context, db *transactions.DB, candidateKeys map[string]transactions.Itemset, minCount int) (*Result, error) {
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	byLen := make(map[int][]transactions.Itemset)
	for _, is := range candidateKeys {
		byLen[len(is)] = append(byLen[len(is)], is)
	}
	lens := make([]int, 0, len(byLen))
	for l := range byLen {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	for _, l := range lens {
		cands := byLen[l]
		counted, err := countWithMap(ctx, db, cands, l)
		if err != nil {
			return nil, err
		}
		var level []ItemsetCount
		for _, ic := range counted {
			if ic.Count >= minCount {
				level = append(level, ic)
			}
		}
		sortLevel(level)
		res.Passes = append(res.Passes, PassStat{K: l, Candidates: len(cands), Frequent: len(level)})
		if len(level) > 0 {
			for len(res.Levels) < l {
				res.Levels = append(res.Levels, nil)
			}
			res.Levels[l-1] = level
		}
	}
	// Trim trailing empty levels (possible when long local candidates were
	// globally infrequent).
	for len(res.Levels) > 0 && len(res.Levels[len(res.Levels)-1]) == 0 {
		res.Levels = res.Levels[:len(res.Levels)-1]
	}
	return res, nil
}

// mineVertical finds all locally frequent itemsets of a partition with the
// paper's tidlist method: L1 from the inverted index, then level-wise
// candidate generation where each candidate's tidlist is the intersection
// of its generators' tidlists. ctx is polled once per level and every
// ctxStride join rows.
func mineVertical(ctx context.Context, db *transactions.DB, minCount int) ([]transactions.Itemset, error) {
	vert := db.ToVertical()
	type node struct {
		items transactions.Itemset
		tids  []int
	}
	var level []node
	items := make([]int, 0, len(vert.TIDLists))
	for item := range vert.TIDLists {
		items = append(items, item)
	}
	sort.Ints(items)
	for _, item := range items {
		if tids := vert.TIDLists[item]; len(tids) >= minCount {
			level = append(level, node{items: transactions.Itemset{item}, tids: tids})
		}
	}
	var out []transactions.Itemset
	for len(level) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, nd := range level {
			out = append(out, nd.items)
		}
		// Join nodes sharing a (k-1)-prefix; intersect tidlists.
		var next []node
		for i := 0; i < len(level); i++ {
			if i%ctxStride == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			for j := i + 1; j < len(level); j++ {
				a, b := level[i], level[j]
				if !samePrefix(a.items, b.items, len(a.items)-1) {
					break
				}
				tids := transactions.IntersectSorted(a.tids, b.tids)
				if len(tids) < minCount {
					continue
				}
				cand := make(transactions.Itemset, len(a.items)+1)
				copy(cand, a.items)
				cand[len(a.items)] = b.items[len(b.items)-1]
				next = append(next, node{items: cand, tids: tids})
			}
		}
		level = next
	}
	return out, nil
}
