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
			scratch = transactions.CountPairs(tx, rank, base, 0, n, pairs, scratch)
		}
	}
}

// layoutRows returns n random rows of 1 to 15 items over [0, numItems).
func layoutRows(rng *rand.Rand, n, numItems int) []transactions.Itemset {
	rows := make([]transactions.Itemset, n)
	for i := range rows {
		items := make([]int, 1+rng.Intn(15))
		for j := range items {
			items[j] = rng.Intn(numItems)
		}
		rows[i] = transactions.NewItemset(items...)
	}
	return rows
}

// TestLayoutMatchesCountTids lays random rows out at a list of 3-itemsets
// over part of the universe, in 1 to 3 shards of more than 4,096 rows
// each, and counts through the layouts: the list itself; 4- and
// 5-itemsets over its items, which the layout covers; and three lists it
// does not cover, which must count exactly all the same — one naming an
// item that was not laid out, one holding a pair (shorter than the row
// filter) and one of singletons. Lists also name items outside the
// universe, which count 0. Every support, summed over the shards, must
// equal CountTids over all rows and the oracle. The "wide" case lays out
// so many items that a block holds fewer than 4096 rows.
func TestLayoutMatchesCountTids(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rows, numItems int
		laid           int // items the 3-itemsets draw from
	}{
		{"narrow", 13000, 60, 30},
		{"wide", 9000, 6000, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			rows := layoutRows(rng, tc.rows, tc.numItems)
			c3 := candidateList(rng, 3, tc.laid)
			if tc.name == "wide" {
				c3 = append(c3, spanning(3, tc.laid)...)
			}
			laidOut := map[int]bool{}
			for _, set := range c3 {
				for _, item := range set {
					laidOut[item] = true
				}
			}
			var over []int // the laid-out items inside the universe
			for item := range tc.laid {
				if laidOut[item] {
					over = append(over, item)
				}
			}
			within := func(k int) []transactions.Itemset {
				var sets []transactions.Itemset
				for range 60 {
					rng.Shuffle(len(over), func(i, j int) { over[i], over[j] = over[j], over[i] })
					sets = append(sets, transactions.NewItemset(over[:k]...))
				}
				return append(sets, transactions.NewItemset(append(over[:k-1:k-1], tc.numItems+3)...))
			}
			outside := append(within(3), transactions.Itemset{over[0], over[1], tc.laid + 1})
			if laidOut[tc.laid+1] {
				t.Fatal("the item outside the layout was laid out")
			}
			lists := map[string][]transactions.Itemset{
				"C3": c3, "k4": within(4), "k5": within(5),
				"item outside the layout": outside,
				"pairs":                   append(within(3), within(2)...),
				"singletons":              within(1),
			}
			want := map[string][]int32{}
			for name, sets := range lists {
				c, err := transactions.NewCandidates(sets, tc.numItems)
				if err != nil {
					t.Fatal(err)
				}
				want[name] = make([]int32, len(sets))
				if err := transactions.CountTids(context.Background(), c, rows, want[name]); err != nil {
					t.Fatal(err)
				}
				for i, set := range sets {
					if int(want[name][i]) != oracle.Support(rows, set) {
						t.Fatalf("%s: %v counted %d by CountTids, oracle %d", name, set, want[name][i], oracle.Support(rows, set))
					}
				}
			}
			for workers := 1; workers <= 3; workers++ {
				c, err := transactions.NewCandidates(c3, tc.numItems)
				if err != nil {
					t.Fatal(err)
				}
				var layouts []*transactions.Layout
				for _, shard := range (&transactions.DB{Transactions: rows}).Shards(workers) {
					l, err := transactions.NewLayout(context.Background(), c, shard.Transactions)
					if err != nil {
						t.Fatal(err)
					}
					layouts = append(layouts, l)
				}
				for name, sets := range lists {
					c, err := transactions.NewCandidates(sets, tc.numItems)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]int32, len(sets))
					for _, l := range layouts {
						if err := l.Count(context.Background(), c, got); err != nil {
							t.Fatal(err)
						}
					}
					for i, set := range sets {
						if got[i] != want[name][i] {
							t.Fatalf("workers %d, %s: %v counted %d through the layouts, want %d", workers, name, set, got[i], want[name][i])
						}
					}
				}
			}
		})
	}
}

// TestLayoutCancelled cancels a layout's build at each of its polls (one
// per block) and then a count through a finished layout at each of its
// polls: every cancelled call returns ctx.Err(), a cancelled build returns
// no layout, and a cancelled count leaves counts untouched. The counts
// after all of them are exact.
func TestLayoutCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
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
	var l *transactions.Layout
	for polls := 1; l == nil; polls++ {
		l, err = transactions.NewLayout(&cancelAfter{Context: context.Background(), polls: polls}, c, rows)
		if err == nil {
			if polls < 4 { // one poll before each of 3 blocks
				t.Fatalf("a build cancelled at poll %d finished", polls)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || l != nil {
			t.Fatalf("build cancelled at poll %d: layout %v, err %v; want none and context.Canceled", polls, l, err)
		}
	}
	counts := make([]int32, len(sets))
	for polls := 1; ; polls++ {
		for i := range counts {
			counts[i] = -7
		}
		err := l.Count(&cancelAfter{Context: context.Background(), polls: polls}, c, counts)
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

// FuzzCountLayout builds rows and two candidate lists from the input — one
// to lay the rows out at, one to count — and requires the count through
// the layout to equal CountTids over the same rows, whether or not the
// layout covers the second list.
func FuzzCountLayout(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 2, 3, 4, 0, 2, 3, 4, 0, 0, 3, 1, 2, 3, 0, 2, 3, 4}, uint8(3))
	f.Add([]byte{2, 5, 6, 0, 5, 6, 7, 0, 0, 1, 5, 0}, uint8(2))
	f.Add([]byte("0"), uint8(2)) // one row, and no list to lay it out at
	f.Fuzz(func(t *testing.T, data []byte, reps uint8) {
		const numItems = 24
		// Sections separated by a 0 byte: rows until an empty section,
		// then the layout's list, then an empty section, then the
		// counted list. A list's sets are its sections; items are bytes
		// mod 32, so some lie outside the universe.
		var sections [][]int
		cur := []int{}
		for _, b := range data {
			if b == 0 {
				sections = append(sections, cur)
				cur = []int{}
				continue
			}
			cur = append(cur, int(b)%32)
		}
		sections = append(sections, cur)
		var rows []transactions.Itemset
		i := 0
		for ; i < len(sections) && len(sections[i]) > 0; i++ {
			row := transactions.NewItemset(sections[i]...)
			for len(row) > 0 && row[len(row)-1] >= numItems {
				row = row[:len(row)-1]
			}
			rows = append(rows, row)
		}
		// Repeat the rows, up to about 10,000, so that they span blocks.
		all := rows
		for range min(int(reps%8)*700, 10000/max(len(rows), 1)) {
			all = append(all, rows...)
		}
		lists := [2][]transactions.Itemset{}
		for l := range lists {
			seen := map[string]bool{}
			for i++; i < len(sections) && len(sections[i]) > 0; i++ {
				set := transactions.NewItemset(sections[i]...)
				if !seen[set.Key()] {
					seen[set.Key()] = true
					lists[l] = append(lists[l], set)
				}
			}
		}
		laid, err := transactions.NewCandidates(lists[0], numItems)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := transactions.NewLayout(context.Background(), laid, all)
		if err != nil {
			t.Fatal(err)
		}
		for _, sets := range lists {
			c, err := transactions.NewCandidates(sets, numItems)
			if err != nil {
				t.Fatal(err)
			}
			got, want := make([]int32, len(sets)), make([]int32, len(sets))
			if err := layout.Count(context.Background(), c, got); err != nil {
				t.Fatal(err)
			}
			if err := transactions.CountTids(context.Background(), c, all, want); err != nil {
				t.Fatal(err)
			}
			for i := range sets {
				if got[i] != want[i] {
					t.Fatalf("%v over %d rows: %d through the layout for %v, %d by CountTids", sets[i], len(all), got[i], lists[0], want[i])
				}
			}
		}
	})
}
