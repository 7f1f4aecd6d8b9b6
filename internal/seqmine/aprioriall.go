package seqmine

import (
	"sort"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// AprioriAll is the three-phase sequential miner of ICDE'95.
type AprioriAll struct{}

// Name implements Miner.
func (a *AprioriAll) Name() string { return "AprioriAll" }

// Mine implements Miner.
func (a *AprioriAll) Mine(data []Sequence, minSupport float64) (*Result, error) {
	minCount, err := checkInput(data, minSupport)
	if err != nil {
		return nil, err
	}
	res := &Result{MinCount: minCount, NumCustomers: len(data)}

	// Phase 1 — litemsets: itemsets frequent when counted once per
	// customer (contained in any of the customer's transactions). Pass 1's
	// candidates are every itemset this phase counted.
	litemsets, litemsetSupport, counted := frequentLitemsets(data, minCount)
	if len(litemsets) == 0 {
		res.Passes = append(res.Passes, PassStat{K: 1, Candidates: counted, Frequent: 0})
		return res, nil
	}

	// Phase 2 — transformation: each transaction becomes the set of
	// litemset ids it contains; transactions containing none are dropped.
	transformed := transform(data, litemsets)

	// Phase 3 — level-wise sequence mining over litemset ids.
	// L1: each frequent litemset as a 1-sequence (same support).
	level := make([]idSeqCount, len(litemsets))
	for i := range litemsets {
		level[i] = idSeqCount{seq: []int{i}, count: litemsetSupport[i]}
	}
	res.Passes = append(res.Passes, PassStat{K: 1, Candidates: counted, Frequent: len(level)})
	res.Levels = append(res.Levels, toSeqCounts(level, litemsets))

	for k := 2; len(level) > 0; k++ {
		cands := seqCandidates(level)
		if len(cands) == 0 {
			break
		}
		counts := make([]int, len(cands))
		for _, cust := range transformed {
			for ci, c := range cands {
				if containsIDSeq(cust, c) {
					counts[ci]++
				}
			}
		}
		level = nil
		for ci, c := range counts {
			if c >= minCount {
				level = append(level, idSeqCount{seq: cands[ci], count: c})
			}
		}
		res.Passes = append(res.Passes, PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
		if len(level) > 0 {
			res.Levels = append(res.Levels, toSeqCounts(level, litemsets))
		}
	}
	return res, nil
}

// idSeqCount is a sequence over litemset ids with its support.
type idSeqCount struct {
	seq   []int
	count int
}

// frequentLitemsets runs a per-customer Apriori over itemsets: support of
// an itemset is the number of customers with at least one transaction
// containing it. Returns the litemsets in deterministic (lexicographic)
// order alongside their supports, and how many itemsets it counted: every
// item seen, then every candidate of each later pass.
func frequentLitemsets(data []Sequence, minCount int) ([]transactions.Itemset, []int, int) {
	// L1: count items once per customer.
	itemCount := make(map[int]int)
	for _, cust := range data {
		seen := make(map[int]struct{})
		for _, tx := range cust {
			for _, item := range tx {
				seen[item] = struct{}{}
			}
		}
		for item := range seen {
			itemCount[item]++
		}
	}
	var level []transactions.Itemset
	var supports []int
	var items []int
	for item, c := range itemCount {
		if c >= minCount {
			items = append(items, item)
		}
	}
	sort.Ints(items)
	counted := len(itemCount)
	for _, item := range items {
		level = append(level, transactions.Itemset{item})
		supports = append(supports, itemCount[item])
	}

	var all []transactions.Itemset
	var allSupports []int
	for len(level) > 0 {
		all = append(all, level...)
		allSupports = append(allSupports, supports...)
		cands := assoc.AprioriGen(level)
		if len(cands) == 0 {
			break
		}
		counted += len(cands)
		counts := make([]int, len(cands))
		for _, cust := range data {
			for ci, c := range cands {
				for _, tx := range cust {
					if tx.ContainsAll(c) {
						counts[ci]++
						break
					}
				}
			}
		}
		level = level[:0]
		supports = supports[:0]
		for ci, c := range counts {
			if c >= minCount {
				level = append(level, cands[ci])
				supports = append(supports, c)
			}
		}
	}
	return all, allSupports, counted
}

// transform maps each customer to the per-transaction sets of litemset ids,
// dropping empty transactions and empty customers.
func transform(data []Sequence, litemsets []transactions.Itemset) [][][]int {
	out := make([][][]int, 0, len(data))
	for _, cust := range data {
		var txs [][]int
		for _, tx := range cust {
			var ids []int
			for id, l := range litemsets {
				if tx.ContainsAll(l) {
					ids = append(ids, id)
				}
			}
			if len(ids) > 0 {
				txs = append(txs, ids)
			}
		}
		if len(txs) > 0 {
			out = append(out, txs)
		}
	}
	return out
}

// seqCandidates implements the ICDE'95 join: all ordered pairs of frequent
// (k-1)-sequences sharing their first k-2 elements produce a candidate
// (including self-joins, which model repeated litemsets), followed by the
// drop-one subsequence prune.
func seqCandidates(level []idSeqCount) [][]int {
	prevSet := make(map[string]struct{}, len(level))
	for _, sc := range level {
		prevSet[idSeqKey(sc.seq)] = struct{}{}
	}
	// Group by (k-2)-prefix for the join.
	groups := make(map[string][]int) // prefix key -> last elements
	order := make([]string, 0)
	prefixOf := make(map[string][]int)
	for _, sc := range level {
		k := len(sc.seq)
		p := idSeqKey(sc.seq[:k-1])
		if _, ok := groups[p]; !ok {
			order = append(order, p)
			prefixOf[p] = append([]int(nil), sc.seq[:k-1]...)
		}
		groups[p] = append(groups[p], sc.seq[k-1])
	}
	var cands [][]int
	buf := make([]int, 0, 16)
	for _, p := range order {
		lasts := groups[p]
		prefix := prefixOf[p]
		for _, x := range lasts {
			for _, y := range lasts {
				cand := make([]int, 0, len(prefix)+2)
				cand = append(cand, prefix...)
				cand = append(cand, x, y)
				// Prune: every drop-one subsequence must be frequent.
				if allDropOneFrequent(cand, prevSet, &buf) {
					cands = append(cands, cand)
				}
			}
		}
	}
	return cands
}

func allDropOneFrequent(cand []int, prevSet map[string]struct{}, buf *[]int) bool {
	for drop := range cand {
		b := (*buf)[:0]
		for i, v := range cand {
			if i != drop {
				b = append(b, v)
			}
		}
		if _, ok := prevSet[idSeqKey(b)]; !ok {
			return false
		}
	}
	return true
}

// idSeqKey joins ids into a canonical key without fmt in the hot path.
func idSeqKey(seq []int) string {
	out := make([]byte, 0, len(seq)*3)
	for i, v := range seq {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendInt(out, v)
	}
	return string(out)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// containsIDSeq checks greedy subsequence containment of a litemset-id
// sequence in a transformed customer.
func containsIDSeq(cust [][]int, seq []int) bool {
	i := 0
	for _, want := range seq {
		for i < len(cust) && !intSliceHas(cust[i], want) {
			i++
		}
		if i >= len(cust) {
			return false
		}
		i++
	}
	return true
}

func intSliceHas(s []int, v int) bool {
	// Transformed ids are ascending (litemsets scanned in order).
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// toSeqCounts converts id sequences back to full Sequences for the Result.
func toSeqCounts(level []idSeqCount, litemsets []transactions.Itemset) []SeqCount {
	out := make([]SeqCount, len(level))
	for i, sc := range level {
		seq := make(Sequence, len(sc.seq))
		for j, id := range sc.seq {
			seq[j] = litemsets[id]
		}
		out[i] = SeqCount{Seq: seq, Count: sc.count}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Seq.Key() < out[j].Seq.Key()
	})
	return out
}
