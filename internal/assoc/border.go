package assoc

import "repro/internal/transactions"

// negativeBorder returns the negative border of a level-wise frequent set
// above level 1: the itemsets produced by the Apriori join of each frequent
// level that are not themselves frequent. Every such candidate has all of
// its proper subsets frequent (aprioriGen's prune guarantees it), so these
// are exactly the minimal infrequent itemsets of length >= 2. The level-1
// part of the border — the infrequent single items — is not included:
// Toivonen's Sampling, its one caller, counts all single items anyway,
// because a flat pass-1 count array covers the whole item universe for
// free. (The incremental maintainer needs no border of its own: the
// level-wise run of its full run counts C_k = L_k plus the border.)
//
// The returned itemsets are deduplicated and appear in level order.
func negativeBorder(levels [][]ItemsetCount) []transactions.Itemset {
	frequent := make(map[string]struct{})
	for _, level := range levels {
		for _, ic := range level {
			frequent[ic.Items.Key()] = struct{}{}
		}
	}
	seen := make(map[string]struct{})
	var out []transactions.Itemset
	for _, level := range levels {
		for _, cand := range aprioriGen(itemsetsOf(level)) {
			key := cand.Key()
			if _, ok := frequent[key]; ok {
				continue
			}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, cand)
		}
	}
	return out
}
