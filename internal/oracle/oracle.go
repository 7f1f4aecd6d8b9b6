// Package oracle is the one brute-force reference the itemset tests check
// engines, maintained states and served views against. It imports only
// the standard library, so it shares no counting kernel, threshold or
// containment test with the code it checks, and no production package
// imports it; TestImportBoundary enforces both. It is written to be
// obviously right, not fast.
package oracle

import (
	"cmp"
	"slices"
	"strconv"
)

// Itemset is one frequent itemset: its items ascending and the number of
// rows that contain all of them.
type Itemset struct {
	Items []int
	Count int
}

// Result is every frequent itemset of a database at one support.
type Result struct {
	NumTx int       // rows in the database
	Sets  []Itemset // by length, then by items
}

// Rule is an association rule Antecedent => Consequent: Support is the
// count of their union, Confidence that count over the antecedent's and
// Lift the confidence over the consequent's relative support.
type Rule struct {
	Antecedent, Consequent []int
	Support                int
	Confidence, Lift       float64
}

// Frequent returns every itemset contained in at least
// max(1, int(minSup·n + 0.999999999)) of the n rows. A row is a set: its
// order and repeated items do not matter. It grows itemsets depth first
// in item order and keeps, for each, the rows that contain it; since no
// superset of an infrequent itemset is frequent, not growing one is
// exact.
func Frequent[R ~[]int](rows []R, minSup float64) Result {
	res := Result{NumTx: len(rows)}
	minCount := max(1, int(minSup*float64(len(rows))+0.999999999))
	var universe []int
	all := make([]int, len(rows))
	for i, row := range rows {
		universe, all[i] = append(universe, row...), i
	}
	slices.Sort(universe)
	universe = slices.Compact(universe)
	var grow func(prefix, containing []int, from int)
	grow = func(prefix, containing []int, from int) {
		for u := from; u < len(universe); u++ {
			var next []int
			for _, i := range containing {
				if slices.Contains(rows[i], universe[u]) {
					next = append(next, i)
				}
			}
			if len(next) >= minCount {
				items := append(slices.Clip(prefix), universe[u])
				res.Sets = append(res.Sets, Itemset{Items: items, Count: len(next)})
				grow(items, next, u+1)
			}
		}
	}
	grow(nil, all, 0)
	slices.SortFunc(res.Sets, func(a, b Itemset) int {
		return cmp.Or(cmp.Compare(len(a.Items), len(b.Items)), slices.Compare(a.Items, b.Items))
	})
	return res
}

// Count returns the count of items, which must be ascending, in res and
// whether it is frequent there; an infrequent itemset counts 0.
func Count(res Result, items []int) (int, bool) {
	i, ok := slices.BinarySearchFunc(res.Sets, items, func(s Itemset, items []int) int {
		return cmp.Or(cmp.Compare(len(s.Items), len(items)), slices.Compare(s.Items, items))
	})
	if !ok {
		return 0, false
	}
	return res.Sets[i].Count, true
}

// Support counts the rows that contain every item of items.
func Support[R ~[]int](rows []R, items []int) int {
	n := 0
	for _, row := range rows {
		if !slices.ContainsFunc(items, func(it int) bool { return !slices.Contains(row, it) }) {
			n++
		}
	}
	return n
}

// Canonical encodes res one itemset a line, "items,…:count", in res's
// order; it is nil when nothing is frequent.
func Canonical(res Result) []byte {
	var out []byte
	for _, s := range res.Sets {
		for i, item := range s.Items {
			if i > 0 {
				out = append(out, ',')
			}
			out = strconv.AppendInt(out, int64(item), 10)
		}
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(s.Count), 10)
		out = append(out, '\n')
	}
	return out
}

// Rules returns every rule whose antecedent and consequent split a
// frequent itemset of res into two non-empty parts and whose confidence
// is at least minConf, ordered by confidence descending, support
// descending, antecedent and then consequent. res must come from
// Frequent, so every part of a frequent itemset is in it. A split is a
// bitmask over the itemset's positions: a frequent k-itemset brings its
// 2^k subsets into res, so k stays far below the mask's width.
func Rules(res Result, minConf float64) []Rule {
	var rules []Rule
	for _, s := range res.Sets {
		for mask := 1; mask < 1<<len(s.Items)-1; mask++ {
			var ante, cons []int
			for b, item := range s.Items {
				if mask&(1<<b) != 0 {
					cons = append(cons, item)
				} else {
					ante = append(ante, item)
				}
			}
			anteSup, _ := Count(res, ante)
			consSup, _ := Count(res, cons)
			if conf := float64(s.Count) / float64(anteSup); conf >= minConf {
				rules = append(rules, Rule{Antecedent: ante, Consequent: cons, Support: s.Count,
					Confidence: conf, Lift: conf / (float64(consSup) / float64(res.NumTx))})
			}
		}
	}
	slices.SortFunc(rules, func(a, b Rule) int {
		return cmp.Or(cmp.Compare(b.Confidence, a.Confidence), cmp.Compare(b.Support, a.Support),
			slices.Compare(a.Antecedent, b.Antecedent), slices.Compare(a.Consequent, b.Consequent))
	})
	return rules
}
