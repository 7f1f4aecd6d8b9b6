package reference

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/assoc"
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

// Name implements assoc.Miner.
func (s *Sampling) Name() string { return "Sampling" }

// Mine implements assoc.Miner.
func (s *Sampling) Mine(db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	return s.MineContext(context.Background(), db, minSupport)
}

// MineContext implements assoc.Miner.
func (s *Sampling) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*assoc.Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return &assoc.Result{}, err
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
	sampleRes, err := (&assoc.Apriori{}).MineContext(ctx, sample, sampleMinSup)
	if err != nil {
		return nil, err
	}

	// Candidate set: the sample-frequent itemsets plus their negative
	// border. Above length 1 that union is exactly the sample's level-wise
	// candidates, C_{l+1} = apriori-gen(L_l): apriori-gen keeps every
	// frequent (l+1)-itemset, and what it keeps beyond them are the
	// minimal infrequent ones. Length 1 takes every item, as a flat
	// pass-1 array covers the item universe for free.
	counted := [][]transactions.Itemset{make([]transactions.Itemset, db.NumItems())}
	for item := range counted[0] {
		counted[0][item] = transactions.Itemset{item}
	}
	for _, level := range sampleRes.Levels {
		counted = append(counted, assoc.AprioriGen(itemsetsOf(level)))
	}

	// Verification: the levels up to the first empty one, where a
	// level-wise run would stop too.
	levels, passes, err := countLevels(ctx, db, counted, minCount)
	if err != nil {
		return nil, err
	}
	res := &assoc.Result{MinCount: minCount, NumTx: db.Len()}
	for _, p := range passes {
		res.Passes = append(res.Passes, p)
		if p.Frequent == 0 {
			break
		}
		res.Levels = append(res.Levels, levels[p.K-1])
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
		fresh := make([][]transactions.Itemset, len(res.Levels)+1)
		none := true
		for l, level := range res.Levels {
			for _, c := range assoc.AprioriGen(itemsetsOf(level)) {
				if !containsSet(counted, c) {
					fresh[l+1] = append(fresh[l+1], c)
					none = false
				}
			}
		}
		if none {
			break
		}
		newly, _, err := countLevels(ctx, db, fresh, minCount)
		if err != nil {
			return nil, err
		}
		grown := false
		for l, found := range newly {
			if l == len(counted) {
				counted = append(counted, nil)
			}
			counted[l] = sortUnique(append(counted[l], fresh[l]...))
			if len(found) == 0 {
				continue
			}
			for len(res.Levels) <= l {
				res.Levels = append(res.Levels, nil)
			}
			res.Levels[l] = append(res.Levels[l], found...)
			sortLevel(res.Levels[l])
			grown = true
		}
		if !grown {
			break
		}
	}
	return res, nil
}

// containsSet reports whether c is among byLen[len(c)-1], which is sorted.
func containsSet(byLen [][]transactions.Itemset, c transactions.Itemset) bool {
	if len(c) > len(byLen) {
		return false
	}
	_, ok := slices.BinarySearchFunc(byLen[len(c)-1], c, transactions.Itemset.Compare)
	return ok
}
