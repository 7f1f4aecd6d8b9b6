package synth

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/stats"
	"repro/internal/transactions"
)

// Sequence is an ordered list of itemsets (one customer's transaction
// history, each element one transaction's itemset).
type Sequence []transactions.Itemset

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, e := range s {
		out[i] = e.Clone()
	}
	return out
}

// SequenceConfig parameterises the customer-sequence generator using the
// ICDE'95/EDBT'96 notation (the "C·T·S·I" datasets).
type SequenceConfig struct {
	NumCustomers   int     // |D|: number of customer sequences
	AvgTxPerCust   float64 // |C|: mean transactions per customer (Poisson)
	AvgTxSize      float64 // |T|: mean items per transaction (Poisson)
	AvgSeqPatLen   float64 // |S|: mean length (in itemsets) of maximal potentially large sequences
	AvgPatternSize float64 // |I|: mean size of itemsets inside those sequences
	NumSeqPatterns int     // N_S: number of maximal potentially large sequences
	NumItemsets    int     // N_I: number of maximal potentially large itemsets feeding the sequences
	NumItems       int     // N: item universe size
	CorruptionMean float64
	CorruptionSD   float64
	Seed           int64
}

// C10T2S4I1 returns the EDBT'96 baseline configuration C10.T2.5.S4.I1.25
// scaled to d customers.
func C10T2S4I1(d int, seed int64) SequenceConfig {
	return SequenceConfig{
		NumCustomers:   d,
		AvgTxPerCust:   10,
		AvgTxSize:      2.5,
		AvgSeqPatLen:   4,
		AvgPatternSize: 1.25,
		NumSeqPatterns: 500,
		NumItemsets:    2500,
		NumItems:       1000,
		CorruptionMean: 0.5,
		CorruptionSD:   0.1,
		Seed:           seed,
	}
}

func (c SequenceConfig) validate() error {
	switch {
	case c.NumCustomers <= 0:
		return fmt.Errorf("%w: NumCustomers=%d", ErrBadConfig, c.NumCustomers)
	case c.AvgTxPerCust <= 0, c.AvgTxSize <= 0, c.AvgSeqPatLen <= 0, c.AvgPatternSize <= 0:
		return fmt.Errorf("%w: non-positive mean", ErrBadConfig)
	case c.NumSeqPatterns <= 0 || c.NumItemsets <= 0:
		return fmt.Errorf("%w: pattern pool sizes", ErrBadConfig)
	case c.NumItems <= 1:
		return fmt.Errorf("%w: NumItems=%d", ErrBadConfig, c.NumItems)
	}
	return nil
}

// seqPattern is a potentially large sequence with weight and corruption.
type seqPattern struct {
	elements   []transactions.Itemset
	weight     float64
	corruption float64
}

// Sequences generates customer sequences: first a pool of potentially large
// itemsets (as in the basket generator), then a pool of potentially large
// sequences whose elements are drawn from that pool, then customers whose
// transaction histories are filled from weighted sequences subject to
// corruption.
func Sequences(c SequenceConfig) ([]Sequence, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))

	// Pool of itemsets used as sequence elements.
	bc := BasketConfig{
		NumTransactions: 1, // unused by generatePatterns
		AvgTxSize:       c.AvgTxSize,
		AvgPatternSize:  c.AvgPatternSize,
		NumPatterns:     c.NumItemsets,
		NumItems:        c.NumItems,
		CorruptionMean:  c.CorruptionMean,
		CorruptionSD:    c.CorruptionSD,
		CorrelationMean: 0.5,
	}
	elemPool := generatePatterns(bc, rng)
	elemWeights := make([]float64, len(elemPool))
	for i, p := range elemPool {
		elemWeights[i] = p.weight
	}
	chooseElem := stats.NewWeighted(elemWeights)

	// Pool of potentially large sequences.
	pats := make([]seqPattern, c.NumSeqPatterns)
	totalW := 0.0
	for p := range pats {
		n := stats.Poisson(rng, c.AvgSeqPatLen-1) + 1
		elems := make([]transactions.Itemset, n)
		for i := range elems {
			elems[i] = elemPool[chooseElem.Choice(rng)].items
		}
		w := rng.ExpFloat64()
		corr := rng.NormFloat64()*c.CorruptionSD + c.CorruptionMean
		if corr < 0 {
			corr = 0
		}
		if corr > 1 {
			corr = 1
		}
		pats[p] = seqPattern{elements: elems, weight: w, corruption: corr}
		totalW += w
	}
	weights := make([]float64, len(pats))
	for i := range pats {
		pats[i].weight /= totalW
		weights[i] = pats[i].weight
	}
	choose := stats.NewWeighted(weights)

	out := make([]Sequence, 0, c.NumCustomers)
	var placed []placement // one customer's admitted items, reused
	for cust := 0; cust < c.NumCustomers; cust++ {
		nTx := stats.Poisson(rng, c.AvgTxPerCust-1) + 1
		// Fill the customer's history from weighted sequence patterns:
		// each chosen pattern is laid across the history preserving order,
		// skipping elements according to corruption.
		placed = placed[:0]
		fills := 0
		for attempts := 0; fills < nTx && attempts < 4*nTx+8; attempts++ {
			sp := pats[choose.Choice(rng)]
			pos := 0
			if nTx > len(sp.elements) {
				pos = rng.Intn(nTx - len(sp.elements) + 1)
			}
			for _, elem := range sp.elements {
				if pos >= nTx {
					break
				}
				if rng.Float64() < sp.corruption {
					continue
				}
				for _, item := range elem {
					placed = append(placed, placement{pos, item})
				}
				pos++
				fills++
			}
		}
		out = append(out, layOut(placed, nTx, rng, c.NumItems))
	}
	return out, nil
}

// placement is one item an element put at a position of a customer's
// history.
type placement struct{ pos, item int }

// layOut turns one customer's placements into its nTx transactions: each
// position's items, sorted and without repeats (the union of the elements
// laid there), and a position no element reached padded with one random
// item, drawn in position order. Every transaction is cut from one array
// for the whole history.
func layOut(placed []placement, nTx int, rng *rand.Rand, numItems int) Sequence {
	slices.SortFunc(placed, func(a, b placement) int {
		if a.pos != b.pos {
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(a.item, b.item)
	})
	seq := make(Sequence, nTx)
	flat := make(transactions.Itemset, 0, len(placed)+nTx)
	for i := 0; i < len(placed); {
		pos, from := placed[i].pos, len(flat)
		for ; i < len(placed) && placed[i].pos == pos; i++ {
			if len(flat) == from || flat[len(flat)-1] != placed[i].item {
				flat = append(flat, placed[i].item)
			}
		}
		seq[pos] = flat[from:len(flat):len(flat)]
	}
	for pos := range seq {
		if len(seq[pos]) == 0 {
			flat = append(flat, rng.Intn(numItems))
			seq[pos] = flat[len(flat)-1 : len(flat) : len(flat)]
		}
	}
	return seq
}
