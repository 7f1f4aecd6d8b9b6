// Package synth reimplements the synthetic workload generators used by the
// canonical evaluations of the surveyed mining algorithms:
//
//   - Quest-style market-basket generator (Agrawal & Srikant, VLDB'94 §4),
//     the "T·I·D" datasets such as T10.I4.D100K;
//   - Quest-style customer-sequence generator (Agrawal & Srikant, ICDE'95 §5;
//     Srikant & Agrawal, EDBT'96), the "C·T·S·I" datasets;
//   - the classification benchmark functions F1–F10 over the nine-attribute
//     person schema (Agrawal, Imielinski & Swami; reused by SLIQ et al.);
//   - Gaussian-mixture and non-convex shape generators for clustering
//     evaluations (CLARANS, DBSCAN, BIRCH).
//
// The original IBM Quest generator binary is proprietary and long
// unavailable; this package follows the published descriptions, which fully
// specify the distributions. All generators are deterministic given a seed.
// The basket and sequence generators draw each pattern from its weighted
// pool with stats.Weighted: O(log |L|) per draw, and the same pattern, draw
// for draw, as a linear scan of the |L| weights (TestBasketsGolden and
// TestSequencesGolden pin the rows).
package synth

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/transactions"
)

// BasketConfig parameterises the market-basket generator using the
// VLDB'94 notation.
type BasketConfig struct {
	NumTransactions int     // |D|
	AvgTxSize       float64 // |T|: mean transaction size (Poisson)
	AvgPatternSize  float64 // |I|: mean size of maximal potentially large itemsets (Poisson)
	NumPatterns     int     // |L|: number of maximal potentially large itemsets
	NumItems        int     // N: item universe size
	CorruptionMean  float64 // mean corruption level (paper: 0.5)
	CorruptionSD    float64 // corruption s.d. (paper: 0.1)
	CorrelationMean float64 // mean fraction of items shared with previous pattern (paper: 0.5)
	Seed            int64
}

// T10I4 returns the paper's default configuration scaled to d transactions:
// |T|=10, |I|=4, |L|=2000 scaled with the item universe, N=1000 by default.
func T10I4(d int, seed int64) BasketConfig {
	return BasketConfig{
		NumTransactions: d,
		AvgTxSize:       10,
		AvgPatternSize:  4,
		NumPatterns:     2000,
		NumItems:        1000,
		CorruptionMean:  0.5,
		CorruptionSD:    0.1,
		CorrelationMean: 0.5,
		Seed:            seed,
	}
}

// TxI(t, i, d) builds a Tt.Ii.Dd configuration with the paper's remaining
// defaults.
func TxI(t, i float64, d int, seed int64) BasketConfig {
	c := T10I4(d, seed)
	c.AvgTxSize = t
	c.AvgPatternSize = i
	return c
}

// ErrBadConfig reports an invalid generator configuration.
var ErrBadConfig = errors.New("synth: invalid configuration")

func (c BasketConfig) validate() error {
	switch {
	case c.NumTransactions <= 0:
		return fmt.Errorf("%w: NumTransactions=%d", ErrBadConfig, c.NumTransactions)
	case c.AvgTxSize <= 0:
		return fmt.Errorf("%w: AvgTxSize=%v", ErrBadConfig, c.AvgTxSize)
	case c.AvgPatternSize <= 0:
		return fmt.Errorf("%w: AvgPatternSize=%v", ErrBadConfig, c.AvgPatternSize)
	case c.NumPatterns <= 0:
		return fmt.Errorf("%w: NumPatterns=%d", ErrBadConfig, c.NumPatterns)
	case c.NumItems <= 1:
		return fmt.Errorf("%w: NumItems=%d", ErrBadConfig, c.NumItems)
	}
	return nil
}

// pattern is a potentially large itemset with its selection weight and
// corruption level.
type pattern struct {
	items      transactions.Itemset
	weight     float64
	corruption float64
}

// generatePatterns builds the pool of maximal potentially large itemsets:
// sizes are Poisson(|I|) with minimum 1; a fraction of each pattern's items
// (exponentially distributed with the correlation mean) is drawn from the
// previous pattern to model cross-pattern correlation; weights are
// exponential and normalised; corruption levels are clipped normals.
func generatePatterns(c BasketConfig, rng *rand.Rand) []pattern {
	pats := make([]pattern, c.NumPatterns)
	totalW := 0.0
	var prev transactions.Itemset
	for p := range pats {
		size := stats.Poisson(rng, c.AvgPatternSize-1) + 1
		if size > c.NumItems {
			size = c.NumItems
		}
		items := make(map[int]struct{}, size)
		if len(prev) > 0 {
			frac := stats.Exponential(rng, c.CorrelationMean)
			if frac > 1 {
				frac = 1
			}
			nShared := int(frac * float64(size))
			for _, idx := range stats.SampleWithoutReplacement(rng, len(prev), nShared) {
				items[prev[idx]] = struct{}{}
			}
		}
		for len(items) < size {
			items[rng.Intn(c.NumItems)] = struct{}{}
		}
		flat := make([]int, 0, len(items))
		for it := range items {
			flat = append(flat, it)
		}
		w := rng.ExpFloat64()
		corr := rng.NormFloat64()*c.CorruptionSD + c.CorruptionMean
		if corr < 0 {
			corr = 0
		}
		if corr > 1 {
			corr = 1
		}
		pats[p] = pattern{items: transactions.NewItemset(flat...), weight: w, corruption: corr}
		prev = pats[p].items
		totalW += w
	}
	for p := range pats {
		pats[p].weight /= totalW
	}
	return pats
}

// Baskets generates a transaction database per the configuration. Each
// transaction has a Poisson(|T|) target size and is filled by repeatedly
// drawing weighted patterns, dropping items from each according to its
// corruption level; a pattern that overflows the remaining budget is
// admitted whole half the time (as in the paper) and otherwise discarded.
func Baskets(c BasketConfig) (*transactions.DB, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	pats := generatePatterns(c, rng)
	weights := make([]float64, len(pats))
	for i, p := range pats {
		weights[i] = p.weight
	}
	choose := stats.NewWeighted(weights)
	db := transactions.NewDB()
	// row holds the transaction's distinct items in the order they were
	// admitted, inRow marks them; both are reset per row, and db.Add sorts.
	inRow := make([]bool, c.NumItems)
	var row, kept []int
	for i := 0; i < c.NumTransactions; i++ {
		target := stats.Poisson(rng, c.AvgTxSize-1) + 1
		row = row[:0]
		// Bound the fill loop: badly corrupted draws may add nothing.
		for attempts := 0; len(row) < target && attempts < 8*target+16; attempts++ {
			pi := choose.Choice(rng)
			if pi < 0 {
				break
			}
			p := pats[pi]
			kept = kept[:0]
			for _, item := range p.items {
				if rng.Float64() >= p.corruption {
					kept = append(kept, item)
				}
			}
			if len(kept) == 0 {
				continue
			}
			if len(row)+len(kept) > target {
				// Paper: admit oversize pattern in half the cases.
				if rng.Intn(2) == 0 {
					continue
				}
			}
			for _, item := range kept {
				if !inRow[item] {
					inRow[item] = true
					row = append(row, item)
				}
			}
		}
		for _, item := range row {
			inRow[item] = false
		}
		if len(row) == 0 {
			row = append(row, rng.Intn(c.NumItems))
		}
		if err := db.Add(row...); err != nil {
			return nil, err
		}
	}
	return db, nil
}
