package serve

import (
	"cmp"
	"slices"

	"repro/mining"
)

// queryIndex is the read-side index of one published View. newView builds
// it exactly once, on the ingest goroutine, and nothing writes it again,
// so readers share it without synchronization.
//
// A rule id is the rule's position in View.rules. That order is the
// published GenerateRules order, confidence non-increasing, so ascending
// ids are descending confidence: the confidence ranking needs no
// permutation of its own, a MinConfidence filter is an id cutoff, and
// every posting list (ids ascending) is already confidence-ranked. Ids
// are int32 — a rule set past 2^31 entries would not fit in memory as
// []mining.Rule to begin with.
//
// The zero value indexes the empty rule set: every lookup yields an
// empty list, so queries over an empty view need no special case.
type queryIndex struct {
	// bySupport and byLift are all rule ids ranked by that metric
	// descending, ties toward the lower id — the order a stable sort of
	// the published rules produces.
	bySupport []int32
	byLift    []int32
	// contains lists, per item, the rules whose antecedent contains it;
	// first lists the rules whose antecedent starts with it. Every
	// published rule has a non-empty antecedent, so each rule is in
	// exactly one first list.
	contains postings
	first    postings
}

// postings is a list of rule-id lists keyed by item id, in compressed
// sparse row form over one allocation: ids[off[item]:off[item+1]] are the
// item's rules, ascending. off is dense up to the largest item any
// antecedent holds, which the session's own per-item arrays already are.
type postings struct {
	off []int32
	ids []int32
}

// of returns item's rule ids (empty for an item no rule is keyed by).
func (p postings) of(item int) []int32 {
	if item >= len(p.off)-1 { // not item+1: a query may ask for MaxInt
		return nil
	}
	return p.ids[p.off[item]:p.off[item+1]]
}

// newPostings keys every rule by keysOf(its antecedent), numItems being
// one more than the largest key.
func newPostings(rules []mining.Rule, numItems int, keysOf func(antecedent []int) []int) postings {
	// Counts go two slots right of their item so that, after the prefix
	// sum, off[item+1] is the item's fill cursor; once filled it has
	// advanced to the next item's start, which is the final layout.
	total := 0
	for i := range rules {
		total += len(keysOf(rules[i].Antecedent))
	}
	buf := make([]int32, numItems+2+total)
	off, ids := buf[:numItems+2], buf[numItems+2:]
	for i := range rules {
		for _, it := range keysOf(rules[i].Antecedent) {
			off[it+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for i := range rules {
		for _, it := range keysOf(rules[i].Antecedent) {
			ids[off[it+1]] = int32(i)
			off[it+1]++
		}
	}
	return postings{off: off[:numItems+1], ids: ids}
}

// newQueryIndex indexes rules, which must be in published order.
func newQueryIndex(rules []mining.Rule) queryIndex {
	if len(rules) == 0 {
		return queryIndex{}
	}
	numItems := 0
	for i := range rules {
		if ant := rules[i].Antecedent; len(ant) > 0 {
			numItems = max(numItems, ant[len(ant)-1]+1) // antecedents are sorted
		}
	}
	ix := queryIndex{
		bySupport: make([]int32, len(rules)),
		byLift:    make([]int32, len(rules)),
		contains:  newPostings(rules, numItems, func(ant []int) []int { return ant }),
		first:     newPostings(rules, numItems, func(ant []int) []int { return ant[:min(1, len(ant))] }),
	}
	for i := range rules {
		ix.bySupport[i], ix.byLift[i] = int32(i), int32(i)
	}
	slices.SortFunc(ix.bySupport, rankCmp(rules, BySupport))
	slices.SortFunc(ix.byLift, rankCmp(rules, ByLift))
	return ix
}

// rankCmp is the total order of rule ids under by: the metric
// descending, ties toward the lower id — the published position, which is
// what a stable sort of the published order yields. cmp.Compare keeps the
// lift order total even for a NaN (it sorts last).
func rankCmp(rules []mining.Rule, by RankBy) func(a, b int32) int {
	switch by {
	case BySupport:
		return func(a, b int32) int {
			if c := cmp.Compare(rules[b].Support, rules[a].Support); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
	case ByLift:
		return func(a, b int32) int {
			if c := cmp.Compare(rules[b].Lift, rules[a].Lift); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
	default:
		return cmp.Compare[int32]
	}
}
