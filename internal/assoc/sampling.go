package assoc

import (
	"context"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/transactions"
)

// Sampling is Toivonen's sampling algorithm (VLDB'96): mine a random
// sample at a lowered support threshold, then verify the sampled frequent
// itemsets and their negative border against the full database in one
// scan. If a negative-border itemset turns out frequent, the sample missed
// part of the answer and the miss is repaired by widening the candidate
// set (rare when the lowered threshold is chosen conservatively).
type Sampling struct {
	// SampleFraction is the fraction of transactions sampled (default 0.2).
	SampleFraction float64
	// LowerFactor scales the support threshold used on the sample
	// (default 0.8, i.e. 20% slack).
	LowerFactor float64
	Seed        int64
}

// Name implements Miner.
func (s *Sampling) Name() string { return "Sampling" }

// Mine implements Miner.
func (s *Sampling) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return s.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner.
func (s *Sampling) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	frac := s.SampleFraction
	if frac <= 0 || frac > 1 {
		frac = 0.2
	}
	lower := s.LowerFactor
	if lower <= 0 || lower > 1 {
		lower = 0.8
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Draw the sample.
	n := int(frac * float64(db.Len()))
	if n < 1 {
		n = 1
	}
	sample := transactions.NewDB()
	for _, idx := range stats.SampleWithoutReplacement(rng, db.Len(), n) {
		if err := sample.Add(db.Transactions[idx]...); err != nil {
			return nil, err
		}
	}

	// Mine the sample at lowered support, clamped so the absolute count
	// on the sample never drops below 2 — at absolute support 1 every
	// itemset in the sample is "frequent" and the candidate set explodes.
	sampleMinSup := minSupport * lower
	if floor := 2.0 / float64(sample.Len()); sampleMinSup < floor {
		sampleMinSup = floor
	}
	if sampleMinSup > 1 {
		sampleMinSup = 1
	}
	apriori := &Apriori{}
	sampleRes, err := apriori.MineContext(ctx, sample, sampleMinSup)
	if err != nil {
		return nil, err
	}

	// Candidate set: sample-frequent itemsets plus their negative border
	// (the same border computation the FUP-style incremental maintainer
	// uses to decide when its cached candidate set still covers the answer).
	candidates := make(map[string]transactions.Itemset)
	for _, ic := range sampleRes.All() {
		candidates[ic.Items.Key()] = ic.Items
	}
	for _, border := range negativeBorder(sampleRes.Levels) {
		candidates[border.Key()] = border
	}
	// Also include all single items (the level-1 negative border).
	for item := 0; item < db.NumItems(); item++ {
		one := transactions.Itemset{item}
		if _, ok := candidates[one.Key()]; !ok {
			candidates[one.Key()] = one
		}
	}

	res, err := s.verify(ctx, db, candidates, minCount)
	if err != nil {
		return nil, err
	}

	// Miss repair (Toivonen's failure handling): when a negative-border
	// itemset is frequent in the full database, the sample under-covered
	// the answer. Iterate to a fixpoint: regenerate candidates from every
	// verified level, count the ones never counted before, and fold newly
	// frequent itemsets back in. Because the verified set always contains
	// all frequent 1-itemsets, the level-wise closure reaches the exact
	// answer.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fresh []transactions.Itemset
		for _, level := range res.Levels {
			for _, c := range aprioriGen(itemsetsOf(level)) {
				if _, ok := candidates[c.Key()]; !ok {
					candidates[c.Key()] = c
					fresh = append(fresh, c)
				}
			}
		}
		if len(fresh) == 0 {
			break
		}
		byLen := make(map[int][]transactions.Itemset)
		for _, c := range fresh {
			byLen[len(c)] = append(byLen[len(c)], c)
		}
		grown := false
		for l, cands := range byLen {
			counted, err := countWithMap(ctx, db, cands, l)
			if err != nil {
				return nil, err
			}
			var newly []ItemsetCount
			for _, ic := range counted {
				if ic.Count >= minCount {
					newly = append(newly, ic)
				}
			}
			if len(newly) == 0 {
				continue
			}
			for len(res.Levels) < l {
				res.Levels = append(res.Levels, nil)
			}
			merged := append(res.Levels[l-1], newly...)
			sortLevel(merged)
			res.Levels[l-1] = merged
			grown = true
		}
		if !grown {
			break
		}
	}
	res.supportIdx = nil // invalidate cache after growth
	return res, nil
}

// verify counts every candidate against the full database and assembles
// the frequent result.
func (s *Sampling) verify(ctx context.Context, db *transactions.DB, candidates map[string]transactions.Itemset, minCount int) (*Result, error) {
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	byLen := make(map[int][]transactions.Itemset)
	maxLen := 0
	for _, is := range candidates {
		byLen[len(is)] = append(byLen[len(is)], is)
		if len(is) > maxLen {
			maxLen = len(is)
		}
	}
	for l := 1; l <= maxLen; l++ {
		cands := byLen[l]
		if len(cands) == 0 {
			break
		}
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
		if len(level) == 0 {
			break
		}
		res.Levels = append(res.Levels, level)
	}
	return res, nil
}
