package assoc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/transactions"
)

// Rule is an association rule Antecedent => Consequent with its quality
// measures. Support is the absolute support of the union; Confidence is
// support(union)/support(antecedent); Lift is confidence divided by the
// consequent's relative support.
type Rule struct {
	Antecedent transactions.Itemset
	Consequent transactions.Itemset
	Support    int
	Confidence float64
	Lift       float64
}

// ErrBadConfidence reports an out-of-range minimum confidence.
var ErrBadConfidence = errors.New("assoc: minimum confidence must be in (0, 1]")

// maxRuleItems is the longest itemset GenerateRules splits: a consequent
// is a bitmask over the itemset's positions. A mined Result never comes
// near it — an itemset is frequent only with all 2^k of its subsets.
const maxRuleItems = 64

// ruleChunk is how many items one allocation of rule itemsets holds.
const ruleChunk = 4096

// GenerateRules derives all rules meeting minConfidence from the frequent
// itemsets of res, using the VLDB'94 ap-genrules procedure: for each
// frequent itemset, 1-item consequents are tested first, and a consequent
// one item larger is tested only if every consequent it extends by one
// item passed — moving items from the antecedent to the consequent can
// only lower confidence. Consequents are bitmasks over the itemset's
// positions, so growing them needs no candidate generation. Supports are
// looked up without string keys: a 1-itemset's in an array indexed by
// item, built from L1 once per call, a longer one's by binary search in
// its sorted level (Result.Support). An itemset whose antecedent is
// missing from res or has zero support yields no rule.
// Rules are returned sorted by descending confidence, then descending
// support, then antecedent order, for deterministic output.
func GenerateRules(res *Result, minConfidence float64) ([]Rule, error) {
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadConfidence, minConfidence)
	}
	if res == nil || res.NumTx == 0 {
		return nil, ErrEmptyDB
	}
	if len(res.Levels) < 2 {
		return nil, nil
	}
	g := ruleGen{res: res, minConf: minConfidence}
	maxItem, hint := -1, 0
	for _, ic := range res.Levels[0] {
		maxItem = max(maxItem, ic.Items[0])
	}
	g.single = make([]int, maxItem+1)
	for _, ic := range res.Levels[0] {
		g.single[ic.Items[0]] = ic.Count
	}
	for _, level := range res.Levels[1:] {
		hint += len(level)
	}
	g.rules = make([]Rule, 0, hint)
	for _, level := range res.Levels[1:] {
		for _, ic := range level {
			if len(ic.Items) > maxRuleItems {
				return nil, fmt.Errorf("assoc: rules from a %d-itemset: at most %d items split", len(ic.Items), maxRuleItems)
			}
			g.itemset(ic)
		}
	}
	if len(g.rules) == 0 {
		return nil, nil
	}
	sortRules(g.rules)
	return g.rules, nil
}

// ruleKey is what the rule sort compares first: a rule's confidence and
// support, which decide almost every comparison without loading the
// rule, and its index. The support saturates at MaxInt32; a tie on the
// saturated value falls through to compareRules, which compares the
// full one, so the order stays exact.
type ruleKey struct {
	conf float64
	sup  int32
	idx  int32
}

// sortRules sorts rules into compareRules order. It sorts 16-byte keys
// instead of the rules, falls back to compareRules only when confidence
// and support tie, and then moves each rule once, following the sorted
// permutation's cycles in place. A rule set past 2^31 entries would not
// fit in memory, so an int32 index suffices.
func sortRules(rules []Rule) {
	keys := make([]ruleKey, len(rules))
	for i := range rules {
		keys[i] = ruleKey{conf: rules[i].Confidence, sup: int32(min(rules[i].Support, math.MaxInt32)), idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b ruleKey) int {
		switch {
		case a.conf != b.conf:
			return cmp.Compare(b.conf, a.conf)
		case a.sup != b.sup:
			return cmp.Compare(b.sup, a.sup)
		}
		return compareRules(rules[a.idx], rules[b.idx])
	})
	// Position i takes rule keys[i].idx. Walk each cycle from its lowest
	// position, marking a placed position by pointing its key at itself.
	for i := range keys {
		if int(keys[i].idx) == i {
			continue
		}
		first, j := rules[i], i
		for {
			k := int(keys[j].idx)
			keys[j].idx = int32(j)
			if k == i {
				rules[j] = first
				break
			}
			rules[j], j = rules[k], k
		}
	}
}

// compareRules is the published rule order: confidence descending, then
// support descending, then antecedent and consequent order.
func compareRules(a, b Rule) int {
	if a.Confidence != b.Confidence {
		if a.Confidence > b.Confidence {
			return -1
		}
		return 1
	}
	if a.Support != b.Support {
		if a.Support > b.Support {
			return -1
		}
		return 1
	}
	if c := a.Antecedent.Compare(b.Antecedent); c != 0 {
		return c
	}
	return a.Consequent.Compare(b.Consequent)
}

// ruleGen is one GenerateRules call's state.
type ruleGen struct {
	res     *Result
	minConf float64
	single  []int // item -> support of the 1-itemset, 0 when it is not in L1
	rules   []Rule
	arena   []int // backing store the rules' itemsets are cut from

	ante, cons  transactions.Itemset // scratch split of the current itemset
	level, next []uint64             // passed consequents of one size, ascending; the next size's
}

// itemset emits the rules of one frequent itemset, level by level over
// consequent size. A consequent c of size m+1 is a | 1<<p for a passed
// consequent a of size m whose items all sit below position p; it is
// tested only if every other m-subset of c passed too. Walking p in the
// outer loop keeps each level ascending for the binary-search lookups.
func (g *ruleGen) itemset(ic ItemsetCount) {
	k := len(ic.Items)
	g.level = g.level[:0]
	for p := 0; p < k; p++ {
		if g.try(ic, 1<<p) {
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
				if c := a | bit; g.subsetsPassed(c, a) && g.try(ic, c) {
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

// try builds the rule ic.Items \ cons => cons, cons given as a position
// mask, and appends it if it meets the confidence bar.
func (g *ruleGen) try(ic ItemsetCount, cons uint64) bool {
	g.ante, g.cons = split(ic.Items, cons, g.ante[:0], g.cons[:0])
	anteSup := g.support(g.ante)
	if anteSup == 0 {
		return false
	}
	conf := float64(ic.Count) / float64(anteSup)
	if conf < g.minConf {
		return false
	}
	lift := 0.0
	if consSup := g.support(g.cons); consSup > 0 {
		lift = conf / (float64(consSup) / float64(g.res.NumTx))
	}
	g.rules = append(g.rules, Rule{
		Antecedent: g.keep(g.ante),
		Consequent: g.keep(g.cons),
		Support:    ic.Count,
		Confidence: conf,
		Lift:       lift,
	})
	return true
}

// support is the support of s in res, 0 when s is not frequent.
func (g *ruleGen) support(s transactions.Itemset) int {
	if len(s) == 1 {
		if s[0] < len(g.single) {
			return g.single[s[0]]
		}
		return 0
	}
	c, _ := g.res.Support(s)
	return c
}

// keep copies s into the arena and returns the copy, capped so that an
// append to it cannot reach its neighbour.
func (g *ruleGen) keep(s transactions.Itemset) transactions.Itemset {
	if len(g.arena)+len(s) > cap(g.arena) {
		g.arena = make([]int, 0, max(ruleChunk, len(s)))
	}
	start := len(g.arena)
	g.arena = append(g.arena, s...)
	return g.arena[start:len(g.arena):len(g.arena)]
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
