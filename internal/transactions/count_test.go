package transactions_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// TestCountTidsMatchesOracle counts candidate lists of lengths 1 to 4,
// each alone and all four as one list, over random rows — sizes on both
// sides of a 64-row word and of a 4096-row block, rows up to 20 items —
// and checks every support against the oracle. The lists hold runs of
// candidates that share their first k-1 items, prefixes that alternate,
// candidates that differ only in their last item, and candidates that
// name items outside the universe (which count 0). The "wide" case ranks
// so many items at k = 4 that a block holds fewer than 4096 rows.
func TestCountTidsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name           string
		rows, numItems int
	}{
		{"rows1", 1, 40}, {"rows63", 63, 40}, {"rows64", 64, 40}, {"rows65", 65, 40},
		{"rows128", 128, 40}, {"rows200", 200, 40}, {"rows4095", 4095, 40},
		{"rows4096", 4096, 40}, {"rows4097", 4097, 40}, {"rows8193", 8193, 40},
		{"wide", 3000, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := make([]transactions.Itemset, tc.rows)
			for i := range rows {
				items := make([]int, 1+rng.Intn(20))
				for j := range items {
					items[j] = rng.Intn(tc.numItems)
				}
				rows[i] = transactions.NewItemset(items...)
			}
			var lists [][]transactions.Itemset
			var mixed []transactions.Itemset
			for k := 1; k <= 4; k++ {
				sets := candidateList(rng, k, tc.numItems)
				if tc.name == "wide" && k == 4 {
					sets = append(sets, spanning(k, tc.numItems)...)
				}
				lists, mixed = append(lists, sets), append(mixed, sets...)
			}
			for _, sets := range append(lists, mixed) {
				c, err := transactions.NewCandidates(sets, tc.numItems)
				if err != nil {
					t.Fatal(err)
				}
				counts := make([]int32, len(sets))
				if err := transactions.CountTids(context.Background(), c, rows, counts); err != nil {
					t.Fatal(err)
				}
				for i, set := range sets {
					if want := oracle.Support(rows, set); int(counts[i]) != want {
						t.Fatalf("candidate %d of %d, %v: counted %d, oracle %d", i, len(sets), set, counts[i], want)
					}
				}
			}
		})
	}
}

// candidateList returns k-itemsets over [0, numItems) in an order that
// exercises the prefix reuse: a run of candidates sharing their first k-1
// items, two prefixes alternating, candidates differing in the last item
// only, random ones, and ones naming items at and far past the universe.
func candidateList(rng *rand.Rand, k, numItems int) []transactions.Itemset {
	random := func() transactions.Itemset {
		perm := rng.Perm(numItems)[:k]
		return transactions.NewItemset(perm...)
	}
	withLast := func(set transactions.Itemset, last int) transactions.Itemset {
		out := set.Clone()
		out[k-1] = last
		return out
	}
	var sets []transactions.Itemset
	for range 8 {
		a, b := random(), random()
		sets = append(sets, a, b, a, b) // alternating prefixes, repeated sets
		for last := a[k-1] + 1; last < min(a[k-1]+6, numItems); last++ {
			sets = append(sets, withLast(a, last)) // only the last item changes
		}
		sets = append(sets, withLast(a, numItems), withLast(b, 1<<40)) // outside the universe
	}
	for range 30 {
		sets = append(sets, random())
	}
	return sets
}

// spanning returns k-itemsets that together name every item of the
// universe, so that all of them are ranked.
func spanning(k, numItems int) []transactions.Itemset {
	var sets []transactions.Itemset
	for lo := 0; lo+k <= numItems; lo += k {
		set := make([]int, k)
		for j := range set {
			set[j] = lo + j
		}
		sets = append(sets, set)
	}
	return sets
}

// cancelAfter is a context whose Err turns to context.Canceled at its
// polls-th poll, so a test can cancel a count at each of its polls in turn.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCountTidsCancelled cancels a count of 4,950 pairs over three blocks
// at every poll it makes — before each block and within a block, past its
// 4096th candidate: each returns ctx.Err() and leaves counts untouched (no
// partial supports), and the scratch it leaves behind is clean, so the
// next count is exact.
func TestCountTidsCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([]transactions.Itemset, 9000)
	for i := range rows {
		rows[i] = transactions.NewItemset(rng.Perm(100)[:8]...)
	}
	var sets []transactions.Itemset
	for a := 0; a < 100; a++ {
		for b := a + 1; b < 100; b++ {
			sets = append(sets, transactions.Itemset{a, b})
		}
	}
	c, err := transactions.NewCandidates(sets, 100)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int32, len(sets))
	for polls := 1; ; polls++ {
		for i := range counts {
			counts[i] = -7
		}
		ctx := &cancelAfter{Context: context.Background(), polls: polls}
		err := transactions.CountTids(ctx, c, rows, counts)
		if err == nil {
			if polls < 7 { // 3 block polls and one within each block
				t.Fatalf("a count cancelled at poll %d finished", polls)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d: err = %v, want context.Canceled", polls, err)
		}
		for i, n := range counts {
			if n != -7 {
				t.Fatalf("poll %d: the cancelled count wrote %d into slot %d", polls, n, i)
			}
		}
	}
	for i, set := range sets {
		if want := oracle.Support(rows, set) - 7; int(counts[i]) != want {
			t.Fatalf("%v after cancelled counts: %d, oracle %d - 7", set, counts[i], want)
		}
	}
}

// TestCountTidsEmpty: no rows, and rows too short for any candidate,
// count 0 without touching what counts already held.
func TestCountTidsEmpty(t *testing.T) {
	sets := []transactions.Itemset{{1, 2, 3}, {2, 3, 4}}
	c, err := transactions.NewCandidates(sets, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]transactions.Itemset{nil, {{}, {}}, {{1, 2}, {3}, {}}} {
		counts := []int32{5, 6}
		if err := transactions.CountTids(context.Background(), c, rows, counts); err != nil || counts[0] != 5 || counts[1] != 6 {
			t.Fatalf("rows %v: err %v, counts %v, want 5 and 6 untouched", rows, err, counts)
		}
	}
}

// TestNewCandidatesSizedByCandidates: the rank table runs to the largest
// candidate item inside the universe, so a universe of 1<<40 items, rows
// naming items near its end and a candidate naming one past it allocate a
// few bytes, and the counts are exact.
func TestNewCandidatesSizedByCandidates(t *testing.T) {
	sets := []transactions.Itemset{{1, 2, 3}, {1, 2, 1 << 40}}
	rows := []transactions.Itemset{{1, 2, 3}, {1, 2, 3, 1<<40 - 1}, {1, 2, 1<<40 - 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := transactions.NewCandidates(sets, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int32, len(sets))
	err = transactions.CountTids(context.Background(), c, rows, counts)
	runtime.ReadMemStats(&after)
	if err != nil || counts[0] != 2 || counts[1] != 0 {
		t.Fatalf("err %v, counts %v, want 2 and 0", err, counts)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("counting %d candidates over a universe of 1<<40 items allocated %d bytes", len(sets), grew)
	}
}

// TestNewCandidatesRejectsEmpty: the empty itemset is no candidate, and
// no candidates at all count nothing.
func TestNewCandidatesRejectsEmpty(t *testing.T) {
	if _, err := transactions.NewCandidates([]transactions.Itemset{{1, 2}, {}}, 10); !errors.Is(err, transactions.ErrEmptyCandidate) {
		t.Errorf("an empty candidate: err = %v, want ErrEmptyCandidate", err)
	}
	c, err := transactions.NewCandidates(nil, 10)
	if err != nil || c.Len() != 0 {
		t.Fatalf("no candidates: %v, %d candidates", err, c.Len())
	}
	if err := transactions.CountTids(context.Background(), c, []transactions.Itemset{{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCountPairs is one serial pass 2 over 80k Quest T10.I4
// transactions at 0.4 % support (the first rung of the mining ladder):
// every transaction's frequent pairs counted into the L1 triangle.
func BenchmarkCountPairs(b *testing.B) {
	db, err := synth.Baskets(synth.T10I4(80000, 1))
	if err != nil {
		b.Fatal(err)
	}
	items := make([]int32, db.NumItems())
	for _, tx := range db.Transactions {
		transactions.CountItems(tx, items)
	}
	minCount := int32(db.AbsoluteSupport(0.004))
	rank := make([]int, len(items))
	n := 0
	for item, c := range items {
		rank[item] = -1
		if c >= minCount {
			rank[item] = n
			n++
		}
	}
	base := transactions.TriBases(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := make([]int32, n*(n-1)/2)
		var scratch []int
		for _, tx := range db.Transactions {
			scratch = transactions.CountPairs(tx, rank, base, pairs, scratch)
		}
	}
}
