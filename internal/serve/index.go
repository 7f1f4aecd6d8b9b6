package serve

import (
	"cmp"
	"math"
	"slices"

	"repro/mining"
)

// queryIndex is the read-side index of one published View. newView builds
// it exactly once, on the publisher goroutine (or in New, for the first
// view), and nothing writes it again, so readers share it without
// synchronization.
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

// rankScratch is the memory the rankings are sorted in, one key and one
// pass-buffer slot per rule. The publisher keeps one across builds, so a
// warm build allocates only the index itself.
type rankScratch struct {
	keys []uint32
	ids  []int32
}

// newQueryIndex indexes rules, which must be in published order, sorting
// the rankings in scratch, grown as needed (nil: a fresh one).
func newQueryIndex(rules []mining.Rule, scratch *rankScratch) queryIndex {
	if len(rules) == 0 {
		return queryIndex{}
	}
	numItems := 0
	for i := range rules {
		if ant := rules[i].Antecedent; len(ant) > 0 {
			numItems = max(numItems, ant[len(ant)-1]+1) // antecedents are sorted
		}
	}
	if scratch == nil {
		scratch = new(rankScratch)
	}
	n := len(rules)
	scratch.keys = slices.Grow(scratch.keys[:0], n)[:n]
	scratch.ids = slices.Grow(scratch.ids[:0], n)[:n]
	return queryIndex{
		bySupport: rankBySupport(rules, scratch),
		byLift:    rankByLift(rules, scratch),
		contains:  newPostings(rules, numItems, func(ant []int) []int { return ant }),
		first:     newPostings(rules, numItems, func(ant []int) []int { return ant[:min(1, len(ant))] }),
	}
}

// rankBySupport returns the rule ids in rankCmp(rules, BySupport) order:
// radixRank over the complemented supports, so ascending keys are support
// descending, ties toward the lower id. A support is below 2^32 — the
// store would otherwise hold more transactions than fit in memory.
func rankBySupport(rules []mining.Rule, scratch *rankScratch) []int32 {
	for i := range rules {
		scratch.keys[i] = ^uint32(rules[i].Support)
	}
	ids := make([]int32, len(rules))
	radixRank(scratch.keys, ids, scratch.ids)
	return ids
}

// rankByLift returns the rule ids in rankCmp(rules, ByLift) order. A key
// holds only the top 32 bits of liftKey, so radixRank is exact except
// within a run of ids whose keys share those bits but not the lift:
// there, ids stand in for the lost low bits. Such a run (lifts equal to
// one part in a million) is re-sorted with the full keys.
func rankByLift(rules []mining.Rule, scratch *rankScratch) []int32 {
	keys := scratch.keys
	for i := range rules {
		keys[i] = uint32(liftKey(rules[i].Lift) >> 32)
	}
	ids := make([]int32, len(rules))
	radixRank(keys, ids, scratch.ids)
	full := func(a, b int32) int {
		if c := cmp.Compare(liftKey(rules[a].Lift), liftKey(rules[b].Lift)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	for lo := 0; lo < len(ids); {
		hi := lo + 1
		for hi < len(ids) && keys[ids[hi]] == keys[ids[lo]] {
			hi++
		}
		if run := ids[lo:hi]; !slices.IsSortedFunc(run, full) {
			slices.SortFunc(run, full)
		}
		lo = hi
	}
	return ids
}

// radixRank writes into ids the ids 0..len(keys)-1 in ascending order of
// keys[id], ties toward the lower id: a stable LSD radix sort, one byte
// of the key per pass from the lowest, that skips each byte on which all
// keys agree. The passes alternate between tmp and ids, so that the last
// one lands in ids; the first reads the ids in their initial, ascending
// order without storing them. ids and tmp are as long as keys.
//
//invcheck:hotpath
func radixRank(keys []uint32, ids, tmp []int32) {
	var counts [4][256]int32
	for _, k := range keys {
		counts[0][uint8(k)]++
		counts[1][uint8(k>>8)]++
		counts[2][uint8(k>>16)]++
		counts[3][uint8(k>>24)]++
	}
	var digits [4]int
	passes := 0
	for d := range counts {
		if len(keys) > 0 && counts[d][uint8(keys[0]>>(8*d))] != int32(len(keys)) {
			digits[passes] = d
			passes++
		}
	}
	if passes == 0 {
		for i := range ids {
			ids[i] = int32(i)
		}
		return
	}
	bufs := [2][]int32{ids, tmp}
	var src []int32
	for p, d := range digits[:passes] {
		dst := bufs[(passes-1-p)%2]
		at, c := int32(0), &counts[d]
		for b, m := range c {
			c[b], at = at, at+m
		}
		shift := 8 * d
		if p == 0 {
			for i, k := range keys {
				b := uint8(k >> shift)
				dst[c[b]] = int32(i)
				c[b]++
			}
		} else {
			for _, id := range src {
				b := uint8(keys[id] >> shift)
				dst[c[b]] = id
				c[b]++
			}
		}
		src = dst
	}
}

// liftKey maps a lift to a key whose ascending order is the lift's
// descending order under cmp.Compare: -0 equals +0 and every NaN sorts
// last. Setting the sign bit of a non-negative float, or flipping all
// bits of a negative one, orders the bits as the floats; the complement
// reverses that.
func liftKey(lift float64) uint64 {
	if lift != lift {
		return math.MaxUint64
	}
	if lift == 0 {
		lift = 0 // -0 to +0
	}
	b := math.Float64bits(lift)
	if b>>63 == 0 {
		return ^(b | 1<<63)
	}
	return b
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
