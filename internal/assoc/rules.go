package assoc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/transactions"
)

// ErrBadConfidence reports an out-of-range minimum confidence.
var ErrBadConfidence = errors.New("assoc: minimum confidence must be in (0, 1]")

// maxRuleItems is the longest itemset GenerateRules splits: a consequent
// is a bitmask over the itemset's positions. A mined Result never comes
// near it — an itemset is frequent only with all 2^k of its subsets.
const maxRuleItems = 64

// GenerateRules derives all rules meeting minConfidence from the frequent
// itemsets of res and writes each one, once, through rule: its
// antecedent and consequent, the absolute support of their union, its
// confidence support(union)/support(antecedent), and its lift, the
// confidence divided by the consequent's relative support (0 when the
// consequent is not in res). The candidates come from the VLDB'94
// ap-genrules procedure: for each frequent itemset, 1-item consequents are
// tested first, and a consequent one item larger is tested only if every
// consequent it extends by one item passed — moving items from the
// antecedent to the consequent can only lower confidence. Consequents are
// bitmasks over the itemset's positions, so growing them needs no
// candidate generation.
//
// A rule that passes is kept as a 24-byte record (confidence, support, the
// itemset's position and the consequent mask), and the records are put
// into the published order: descending confidence, then descending
// support, then antecedent and consequent order, read from the itemset
// through the mask. An in-place radix sort on the confidence bits
// (sortRecs) does most of it; the record comparator orders only the small
// buckets the radix passes leave and the records of equal confidence.
// Only then is each rule written, into one []R of
// exact length whose itemsets are cut from one exactly sized arena (each
// capped, so an append to one cannot reach its neighbour); a rule with no
// consequent support gets lift 0.
//
// Supports are looked up without string keys: a 1-itemset's in an array
// indexed by item, built from L1 once per call; a longer one's by binary
// search among the itemsets of its level that share its first item, found
// in a first-item offset table built once per call for each level an
// antecedent or consequent can fall in. An itemset whose antecedent is
// missing from res or has zero support yields no rule. Levels must be in
// lexicographic order, as every miner leaves them.
func GenerateRules[R any](res *Result, minConfidence float64, rule func(ante, cons transactions.Itemset, support int, conf, lift float64) R) ([]R, error) {
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadConfidence, minConfidence)
	}
	if res == nil || res.NumTx == 0 {
		return nil, ErrEmptyDB
	}
	if len(res.Levels) < 2 {
		return nil, nil
	}
	g, err := newRuleGen(res, minConfidence)
	if err != nil {
		return nil, err
	}
	g.collect()
	if len(g.recs) == 0 {
		return nil, nil
	}
	g.sortRecs(g.recs, 56)
	return writeRules(g, rule), nil
}

// writeRules writes g's records, in their order, through rule into one
// []R of exact length, cutting every antecedent and consequent from one
// exactly sized arena, and computes each rule's lift.
func writeRules[R any](g *ruleGen, rule func(ante, cons transactions.Itemset, support int, conf, lift float64) R) []R {
	arena := make([]int, g.items)
	rules := make([]R, len(g.recs))
	for i, r := range g.recs {
		ic := g.at(r.ref)
		k, nc := len(ic.Items), bits.OnesCount64(r.mask)
		ante, cons := split(ic.Items, r.mask, arena[:0:k-nc], arena[k-nc:k-nc:k])
		arena = arena[k:]
		lift := 0.0
		if consSup := g.support(cons); consSup > 0 {
			lift = r.conf / (float64(consSup) / float64(g.res.NumTx))
		}
		rules[i] = rule(ante, cons, ic.Count, r.conf, lift)
	}
	return rules
}

// ruleRec is a rule that passed the confidence bar, before it is written:
// its confidence, its support saturated at MaxInt32, the position of its
// itemset among res's itemsets of length 2 and up (in level, then
// lexicographic order) and its consequent as a position mask. A Result
// past 2^31 itemsets would not fit in memory, so an int32 position
// suffices.
type ruleRec struct {
	conf float64
	sup  int32
	ref  int32
	mask uint64
}

// ruleGen is one GenerateRules call's state.
type ruleGen struct {
	res     *Result
	minConf float64
	single  []int // item -> support of the 1-itemset, 0 when it is not in L1
	// first holds one table of width entries for each itemset length m in
	// [2, len(Levels)): entry x of length m's table, at (m-2)*width+x, is
	// the position in Levels[m-1] of the first itemset whose first item is
	// at least x. Itemsets starting with x lie between entries x and x+1.
	first []int32
	width int
	recs  []ruleRec
	items int // item count of the kept rules' itemsets: the arena's size

	ante, cons  transactions.Itemset // scratch split of the current itemset
	level, next []uint64             // passed consequents of one size, ascending; the next size's
}

// newRuleGen builds the support lookups of res and the call's scratch. It
// sizes the records at twice res's count of itemsets of length 2 and up,
// the most rules its pairs can yield; on mined results the longer
// itemsets' rules rarely outgrow it.
func newRuleGen(res *Result, minConf float64) (*ruleGen, error) {
	g := &ruleGen{res: res, minConf: minConf}
	maxItem, sets := -1, 0
	for _, ic := range res.Levels[0] {
		maxItem = max(maxItem, ic.Items[0])
	}
	g.single = make([]int, maxItem+1)
	for _, ic := range res.Levels[0] {
		g.single[ic.Items[0]] = ic.Count
	}
	for _, level := range res.Levels[1:] {
		for _, ic := range level {
			if len(ic.Items) > maxRuleItems {
				return nil, fmt.Errorf("assoc: rules from a %d-itemset: at most %d items split", len(ic.Items), maxRuleItems)
			}
		}
		sets += len(level)
	}
	g.recs = make([]ruleRec, 0, 2*sets)
	k := len(res.Levels) // the longest itemset's length
	items, masks := make([]int, 2*k), make([]uint64, 2*k)
	g.ante, g.cons = items[:0:k], items[k:k:2*k]
	g.level, g.next = masks[:0:k], masks[k:k:2*k]
	inner := res.Levels[1 : len(res.Levels)-1] // the lengths a proper subset can have
	for _, level := range inner {
		if len(level) > 0 {
			maxItem = max(maxItem, level[len(level)-1].Items[0])
		}
	}
	g.width = maxItem + 2
	g.first = make([]int32, len(inner)*g.width)
	for m, level := range inner {
		table, j := g.first[m*g.width:(m+1)*g.width], 0
		for x := range table {
			for j < len(level) && level[j].Items[0] < x {
				j++
			}
			table[x] = int32(j)
		}
	}
	return g, nil
}

// collect keeps the record of every rule that passes, itemset by itemset
// in level then lexicographic order.
func (g *ruleGen) collect() {
	ref := int32(0)
	for _, level := range g.res.Levels[1:] {
		for _, ic := range level {
			g.itemset(ref, ic)
			ref++
		}
	}
}

// itemset keeps the rules of one frequent itemset, level by level over
// consequent size. A consequent c of size m+1 is a | 1<<p for a passed
// consequent a of size m whose items all sit below position p; it is
// tested only if every other m-subset of c passed too. Walking p in the
// outer loop keeps each level ascending for the binary-search lookups.
func (g *ruleGen) itemset(ref int32, ic ItemsetCount) {
	k := len(ic.Items)
	g.level = g.level[:0]
	for p := 0; p < k; p++ {
		if g.try(ref, ic, 1<<p) {
			g.level = append(g.level, 1<<p)
		}
	}
	for m := 1; len(g.level) > 0 && m+1 < k; m++ {
		g.next = g.next[:0]
		for p := 1; p < k; p++ {
			bit := uint64(1) << p
			for _, a := range g.level {
				if a >= bit {
					break
				}
				if c := a | bit; g.subsetsPassed(c, a) && g.try(ref, ic, c) {
					g.next = append(g.next, c)
				}
			}
		}
		g.level, g.next = g.next, g.level
	}
}

// subsetsPassed reports whether every subset of c that drops one of a's
// items is in the current level (c minus its top item is a itself).
func (g *ruleGen) subsetsPassed(c, a uint64) bool {
	for rest := a; rest != 0; rest &= rest - 1 {
		if _, ok := slices.BinarySearch(g.level, c&^(rest&-rest)); !ok {
			return false
		}
	}
	return true
}

// try tests the rule ic.Items \ cons => cons, cons given as a position
// mask, and keeps its record if it meets the confidence bar.
func (g *ruleGen) try(ref int32, ic ItemsetCount, cons uint64) bool {
	g.ante, g.cons = split(ic.Items, cons, g.ante[:0], g.cons[:0])
	anteSup := g.support(g.ante)
	if anteSup == 0 {
		return false
	}
	conf := float64(ic.Count) / float64(anteSup)
	if conf < g.minConf {
		return false
	}
	g.recs = append(g.recs, ruleRec{conf: conf, sup: int32(min(ic.Count, math.MaxInt32)), ref: ref, mask: cons})
	g.items += len(ic.Items)
	return true
}

// at is the itemset a record refers to.
func (g *ruleGen) at(ref int32) ItemsetCount {
	i, l := int(ref), 1
	for i >= len(g.res.Levels[l]) {
		i -= len(g.res.Levels[l])
		l++
	}
	return g.res.Levels[l][i]
}

// compare is the published rule order over records: confidence
// descending, then support descending, then antecedent and consequent
// order. Confidence and support decide almost every comparison from the
// record alone; a tie reads both itemsets. The full supports settle a tie
// on the saturated one. Two records never compare equal, since an itemset
// and a consequent name one rule.
func (g *ruleGen) compare(a, b ruleRec) int {
	if a.conf != b.conf {
		if a.conf > b.conf {
			return -1
		}
		return 1
	}
	if a.sup != b.sup {
		if a.sup > b.sup {
			return -1
		}
		return 1
	}
	x, y := g.at(a.ref), g.at(b.ref)
	if x.Count != y.Count {
		if x.Count > y.Count {
			return -1
		}
		return 1
	}
	if c := comparePart(x.Items, ^a.mask, y.Items, ^b.mask); c != 0 {
		return c
	}
	return comparePart(x.Items, a.mask, y.Items, b.mask)
}

// recCutoff is the largest bucket sortRecs hands to g.compare instead of
// splitting it by the next byte: below it, a comparison sort is cheaper
// than another pass of 256 counters.
const recCutoff = 32

// sortRecs puts recs into g.compare order by an in-place MSD radix sort
// (American flag sort) on the complemented confidence bits, so that
// ascending keys are confidence descending: it splits recs into one bucket
// per value of the key's byte at shift, skipping a byte on which all of
// them agree, and sorts each bucket by the next byte down. g.compare
// decides only a bucket of at most recCutoff records and one whose
// records share all eight bytes, an equal confidence. A confidence is in
// (0, 1], so its bits order as the floats do. Shift 56, the top byte,
// sorts all of recs.
//
//invcheck:hotpath
func (g *ruleGen) sortRecs(recs []ruleRec, shift uint) {
	var end [256]int32
	for {
		if len(recs) <= recCutoff {
			slices.SortFunc(recs, g.compare)
			return
		}
		end = [256]int32{}
		for i := range recs {
			end[recDigit(recs[i], shift)]++
		}
		if end[recDigit(recs[0], shift)] != int32(len(recs)) {
			break
		}
		if shift == 0 {
			slices.SortFunc(recs, g.compare)
			return
		}
		shift -= 8
	}
	var next [256]int32
	at := int32(0)
	for b, n := range end {
		next[b] = at
		at += n
		end[b] = at
	}
	for b := range next {
		for next[b] < end[b] {
			r := recs[next[b]]
			for d := recDigit(r, shift); d != uint8(b); d = recDigit(r, shift) {
				r, recs[next[d]] = recs[next[d]], r
				next[d]++
			}
			recs[next[b]] = r
			next[b]++
		}
	}
	lo := int32(0)
	for _, hi := range end {
		if bucket := recs[lo:hi]; len(bucket) > recCutoff && shift > 0 {
			g.sortRecs(bucket, shift-8)
		} else if len(bucket) > 1 {
			slices.SortFunc(bucket, g.compare)
		}
		lo = hi
	}
}

// recDigit is the byte at shift of r's sort key, its complemented
// confidence bits.
func recDigit(r ruleRec, shift uint) uint8 {
	return uint8(^math.Float64bits(r.conf) >> shift)
}

// comparePart compares, in Itemset.Compare order, the items of x at the
// positions set in xm with those of y at the positions set in ym: two
// rules' antecedents under the complements of their consequent masks,
// their consequents under the masks themselves.
func comparePart(x transactions.Itemset, xm uint64, y transactions.Itemset, ym uint64) int {
	i, j := 0, 0
	for {
		for i < len(x) && xm&(1<<i) == 0 {
			i++
		}
		for j < len(y) && ym&(1<<j) == 0 {
			j++
		}
		switch {
		case i == len(x) && j == len(y):
			return 0
		case i == len(x):
			return -1
		case j == len(y):
			return 1
		case x[i] != y[j]:
			if x[i] < y[j] {
				return -1
			}
			return 1
		}
		i++
		j++
	}
}

// support is the support of s in res, 0 when s is not frequent. s is a
// proper subset of an itemset of res, so it is shorter than len(Levels).
func (g *ruleGen) support(s transactions.Itemset) int {
	if len(s) == 1 {
		if s[0] < len(g.single) {
			return g.single[s[0]]
		}
		return 0
	}
	if s[0] >= g.width-1 {
		return 0
	}
	at := (len(s)-2)*g.width + s[0]
	level := g.res.Levels[len(s)-1][g.first[at]:g.first[at+1]]
	i, ok := slices.BinarySearchFunc(level, s, func(ic ItemsetCount, s transactions.Itemset) int {
		return ic.Items.Compare(s)
	})
	if !ok {
		return 0
	}
	return level[i].Count
}

// split appends the items of set outside mask to out and those inside it
// to in, both in set's order, and returns them.
func split(set transactions.Itemset, mask uint64, out, in transactions.Itemset) (transactions.Itemset, transactions.Itemset) {
	for p, item := range set {
		if mask&(1<<p) != 0 {
			in = append(in, item)
		} else {
			out = append(out, item)
		}
	}
	return out, in
}
