package assoc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// incrementalFixture returns a pool of synthetic transactions: the first
// base of them seed the store, the rest feed appends.
func incrementalFixture(t *testing.T, total int) []transactions.Itemset {
	t.Helper()
	cfg := synth.TxI(8, 3, total, 42)
	cfg.NumItems = 60
	cfg.NumPatterns = 30
	db, err := synth.Baskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db.Transactions
}

// mustMaintain runs Maintain and fails the test on error.
func mustMaintain(t *testing.T, inc *Incremental) (*Result, MaintainStats) {
	t.Helper()
	res, stats, err := inc.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// TestIncrementalEquivalenceProperty drives a randomized append/delete
// sequence and checks, at every step, that the maintained result is
// byte-identical to a from-scratch run on a snapshot — at workers 1 and 4.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(t *testing.T) {
			pool := incrementalFixture(t, 700)
			base, updates := pool[:400], pool[400:]

			store := transactions.NewShardedDB(64)
			for _, tx := range base {
				if err := store.Append(tx...); err != nil {
					t.Fatal(err)
				}
			}
			const minSup = 0.03
			inc := &Incremental{Workers: workers}
			if _, stats, err := inc.Attach(store, minSup); err != nil {
				t.Fatal(err)
			} else if !stats.FullRun || stats.DirtyShards != store.NumShards() {
				t.Fatalf("attach stats = %+v, want full run over all shards", stats)
			}

			rng := rand.New(rand.NewSource(11))
			scratch := &Apriori{}
			incRuns, fullRuns := 0, 0
			next := 0
			for step := 0; step < 12; step++ {
				// A mixed batch: a few appends from the pool, a few deletes.
				for i := 0; i < 10 && next < len(updates); i++ {
					if err := store.Append(updates[next]...); err != nil {
						t.Fatal(err)
					}
					next++
				}
				for i := 0; i < 4; i++ {
					if _, err := store.DeleteAt(rng.Intn(store.Len())); err != nil {
						t.Fatal(err)
					}
				}
				res, stats := mustMaintain(t, inc)
				if stats.FullRun {
					fullRuns++
				} else {
					incRuns++
					if stats.DirtyShards == stats.NumShards {
						t.Fatalf("step %d: incremental path re-counted every shard", step)
					}
				}
				want, err := scratch.Mine(store.Snapshot(), minSup)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Canonical(), want.Canonical()) {
					t.Fatalf("step %d (stats %+v): maintained result diverged from from-scratch run", step, stats)
				}
				if res.MinCount != want.MinCount || res.NumTx != want.NumTx {
					t.Fatalf("step %d: MinCount/NumTx %d/%d, want %d/%d",
						step, res.MinCount, res.NumTx, want.MinCount, want.NumTx)
				}
			}
			if incRuns == 0 {
				t.Fatal("no update was handled incrementally; the cache never paid off")
			}
			t.Logf("workers=%d: %d incremental, %d full-run steps", workers, incRuns, fullRuns)
		})
	}
}

// TestIncrementalBorderCrossingFallsBack forces a border crossing: a flood
// of transactions containing a previously infrequent item pushes it (and
// pairs through it) into the frequent set, whose counts were never tracked.
func TestIncrementalBorderCrossingFallsBack(t *testing.T) {
	store := transactions.NewShardedDB(64)
	// Items 0..4 frequent together; item 50 appears once.
	for i := 0; i < 200; i++ {
		if err := store.Append(0, 1, 2, 3, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Append(50); err != nil {
		t.Fatal(err)
	}
	inc := &Incremental{}
	if _, _, err := inc.Attach(store, 0.1); err != nil {
		t.Fatal(err)
	}

	// Flood with {50, 51} pairs: both become frequent, no tracked counts.
	for i := 0; i < 100; i++ {
		if err := store.Append(50, 51); err != nil {
			t.Fatal(err)
		}
	}
	res, stats := mustMaintain(t, inc)
	if !stats.FullRun {
		t.Fatalf("stats = %+v, want a full-run fallback on border crossing", stats)
	}
	want, err := (&Apriori{}).Mine(store.Snapshot(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Canonical(), want.Canonical()) {
		t.Fatal("fallback result diverged from from-scratch run")
	}
	if _, ok := res.Support(transactions.Itemset{50, 51}); !ok {
		t.Fatal("pair {50,51} should be frequent after the flood")
	}

	// A quiet follow-up batch is handled incrementally again.
	for i := 0; i < 5; i++ {
		if err := store.Append(0, 1, 2, 3, 4); err != nil {
			t.Fatal(err)
		}
	}
	_, stats = mustMaintain(t, inc)
	if stats.FullRun {
		t.Fatalf("stats = %+v, want incremental handling after rebuild", stats)
	}
	if stats.DirtyShards == 0 || stats.DirtyShards == stats.NumShards {
		t.Fatalf("stats = %+v, want only the appended shard dirty", stats)
	}
}

// TestIncrementalThresholdFallbacks reaches each way threshold can find the
// tracked set short of the new answer — an item newly frequent (its pairs
// were never counted), a level longer than any tracked one, and a
// candidate missing from its tracked level — and checks each ends in a full
// run that says why and equals a scratch mine.
func TestIncrementalThresholdFallbacks(t *testing.T) {
	repeat := func(n int, items ...int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = items
		}
		return out
	}
	concat := func(parts ...[][]int) [][]int {
		var out [][]int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		initial, flood [][]int
		minSup         float64
		reason         string
	}{
		{
			// Items 50 and 51 were infrequent at the rebuild, so no pair
			// through them has a triangle slot.
			name:    "newly frequent item",
			initial: concat(repeat(200, 0, 1, 2, 3, 4), repeat(1, 50)),
			flood:   repeat(100, 50, 51),
			minSup:  0.1,
			reason:  "item 50 newly frequent",
		},
		{
			// Only {0,1} was a frequent pair, so nothing of length 3 was
			// generated, frequent or border; the flood makes {0,1,2} a
			// candidate.
			name:    "no tracked length",
			initial: concat(repeat(100, 0, 1), repeat(100, 2)),
			flood:   repeat(100, 0, 1, 2),
			minSup:  0.2,
			reason:  "no tracked candidates of length 3",
		},
		{
			// {0,1,2} is the tracked level 3; the flood makes every pair of
			// 2, 3, 4 frequent, and {2,3,4} was never generated.
			name:    "candidate never counted",
			initial: concat(repeat(100, 0, 1, 2), repeat(100, 3), repeat(100, 4)),
			flood:   repeat(150, 2, 3, 4),
			minSup:  0.2,
			reason:  "of length 3 was never counted",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := transactions.NewShardedDB(64)
			for _, tx := range tc.initial {
				if err := store.Append(tx...); err != nil {
					t.Fatal(err)
				}
			}
			inc := &Incremental{}
			if _, _, err := inc.Attach(store, tc.minSup); err != nil {
				t.Fatal(err)
			}
			for _, tx := range tc.flood {
				if err := store.Append(tx...); err != nil {
					t.Fatal(err)
				}
			}
			res, stats := mustMaintain(t, inc)
			if !stats.FullRun || !strings.Contains(stats.Reason, tc.reason) {
				t.Fatalf("stats = %+v, want a full run because %q", stats, tc.reason)
			}
			requireScratchEqual(t, store, tc.minSup, res, tc.name)
		})
	}
}

// TestIncrementalBorderRisesWithoutCrossing is the other side of
// TestIncrementalThresholdFallbacks: a tracked border itemset — a pair, or
// a 3-itemset — that was below the tracking support at the rebuild rises
// above the real one, but none of its one-item supersets is an apriori-gen
// candidate. No untracked count is needed, so the maintain must stay
// incremental and still equal a scratch mine, passes included.
func TestIncrementalBorderRisesWithoutCrossing(t *testing.T) {
	repeat := func(n int, items ...int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = items
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		initial [][][]int
		flood   [][]int
		border  transactions.Itemset
	}{
		{
			// Items 0-3 are all ranked and {1,2} is tracked at 20, below
			// the tracking count of 48. The flood lifts it to 80 against a
			// minimum count of 72, but {0,2}, {1,3} and {2,3} stay at 0, so
			// aprioriGen(L2) is empty.
			name:    "pair",
			initial: [][][]int{repeat(100, 0, 1), repeat(100, 2), repeat(20, 1, 2), repeat(80, 3)},
			flood:   repeat(60, 1, 2),
			border:  transactions.Itemset{1, 2},
		},
		{
			// Every pair of {0,1,3} is a seed, so {0,1,3} is tracked at 20,
			// below the tracking count of 64. The flood lifts it to 100
			// against a minimum count of 96, next to the seed {0,1,2}; their
			// join {0,1,2,3} is pruned, as {2,3} never occurs.
			name:    "3-itemset",
			initial: [][][]int{repeat(100, 0, 1, 2), repeat(70, 0, 3), repeat(70, 1, 3), repeat(20, 0, 1, 3), repeat(140, 4)},
			flood:   repeat(80, 0, 1, 3),
			border:  transactions.Itemset{0, 1, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const minSup = 0.2
			store := transactions.NewShardedDB(64)
			for _, part := range tc.initial {
				for _, tx := range part {
					if err := store.Append(tx...); err != nil {
						t.Fatal(err)
					}
				}
			}
			inc := &Incremental{}
			if _, _, err := inc.Attach(store, minSup); err != nil {
				t.Fatal(err)
			}
			seeds := inc.pairSeeds
			if len(tc.border) > 2 {
				seeds = inc.levels[len(tc.border)-3].seeds
			}
			if at, ok := inc.slot(tc.border); !ok || seeds.Has(at) {
				t.Fatalf("%v: tracked %v, seed %v; want a tracked itemset that was no seed", tc.border, ok, seeds.Has(at))
			}
			for _, tx := range tc.flood {
				if err := store.Append(tx...); err != nil {
					t.Fatal(err)
				}
			}
			res, stats := mustMaintain(t, inc)
			if stats.FullRun {
				t.Fatalf("stats = %+v, want the rise absorbed incrementally", stats)
			}
			if _, ok := res.Support(tc.border); !ok {
				t.Fatalf("%v should be frequent after the flood", tc.border)
			}
			requireScratchEqual(t, store, minSup, res, tc.name)
		})
	}
}

// TestIncrementalDeltaTotalsExact drives deltas across the vertical
// count's boundaries — 64-row bitset words and 4096-row blocks — as
// appends, deletes and both, and after each Maintain checks every tracked
// total (items, pairs and every level) against the oracle's count over the
// live rows.
func TestIncrementalDeltaTotalsExact(t *testing.T) {
	const base = 8400
	// A word and a row, and a row short of one word; then a block and a
	// row, appended, deleted and both.
	// transactions.CountTids' longest block. Blocks hold that many rows
	// only while the ranked items and the longest candidate stay under
	// tidBudget/64 (2,048); this fixture's 30-item universe keeps them far
	// below it, so these steps do land on block boundaries.
	const block = 4096
	steps := []struct{ appends, deletes int }{
		{65, 63}, {block + 1, 0}, {0, block + 1}, {block + 1, block + 1},
	}
	total := base
	for _, st := range steps {
		total += st.appends
	}
	cfg := synth.TxI(5, 3, total, 7)
	cfg.NumItems, cfg.NumPatterns = 30, 15
	db, err := synth.Baskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := transactions.NewShardedDB(256)
	for _, tx := range db.Transactions[:base] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	const minSup = 0.1
	inc := &Incremental{TrackSlack: 0.5}
	if _, _, err := inc.Attach(store, minSup); err != nil {
		t.Fatal(err)
	}
	if len(inc.levels) < 2 {
		t.Fatalf("%d tracked levels of length 3 or more, want at least two to count vertically", len(inc.levels))
	}
	rng := rand.New(rand.NewSource(5))
	next := base
	for i, st := range steps {
		for range st.appends {
			if err := store.Append(db.Transactions[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for range st.deletes {
			if _, err := store.DeleteAt(rng.Intn(store.Len())); err != nil {
				t.Fatal(err)
			}
		}
		res, stats := mustMaintain(t, inc)
		name := fmt.Sprintf("step %d (+%d -%d)", i, st.appends, st.deletes)
		if stats.FullRun || stats.RecountedTx != st.appends+st.deletes {
			t.Fatalf("%s: stats = %+v, want the delta counted incrementally", name, stats)
		}
		requireTotalsExact(t, name, inc, store.Snapshot().Transactions)
		requireScratchEqual(t, store, minSup, res, name)
	}
}

// requireTotalsExact fails unless every tracked total of inc equals the
// oracle's support over rows.
func requireTotalsExact(t *testing.T, name string, inc *Incremental, rows []transactions.Itemset) {
	t.Helper()
	check := func(set transactions.Itemset, got int32) {
		t.Helper()
		if want := oracle.Support(rows, set); int(got) != want {
			t.Fatalf("%s: total of %v = %d, oracle counts %d", name, set, got, want)
		}
	}
	for item, c := range inc.itemTotals {
		check(transactions.Itemset{item}, c)
	}
	n := len(inc.l1Items)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			check(transactions.Itemset{inc.l1Items[a], inc.l1Items[b]}, inc.triTotals[transactions.TriIndex(n, a, b)])
		}
	}
	for _, lv := range inc.levels {
		for id, set := range lv.sets {
			check(set, lv.totals[id])
		}
	}
}

// TestAttachTracksTheCandidateSets pins what a full run leaves tracked: on
// random stores, at workers 1 and 4, over local scans and over a Remote
// cluster, the item totals, the pair triangle over the L1 ranks and every
// level's sets and totals equal a brute-force count of C_1, C_2 and each
// aprioriGen(L_{k-1}) at the tracking support. With a Remote, the
// coordinator saw one scan per counted pass and nothing more: the full run
// does not count the store a second time.
func TestAttachTracksTheCandidateSets(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := synth.TxI(float64(4+rng.Intn(6)), float64(2+rng.Intn(3)), 100+rng.Intn(300), seed)
		cfg.NumItems, cfg.NumPatterns = 30+rng.Intn(30), 10+rng.Intn(20)
		db, err := synth.Baskets(cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := transactions.NewShardedDBFrom(db, 64)
		minSup := 0.02 + 0.06*rng.Float64()
		for _, workers := range []int{1, 4} {
			for _, remote := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/workers%d/remote=%v", seed, workers, remote)
				inc := &Incremental{Workers: workers}
				if remote {
					inc.Remote = newDistributed(DistEngineApriori, 2)
				}
				scans := 0
				inc.SetPassHook(func(stat PassStat, _ []ItemsetCount) {
					if stat.Candidates > 0 {
						scans++
					}
				})
				if _, _, err := inc.Attach(store, minSup); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requireBruteForceTracked(t, name, inc, store.Snapshot(), store.NumItems(), store.AbsoluteSupport(inc.trackSupport()))
				if remote {
					holders := min(store.NumShards(), 2) // round-robin placement
					if got := inc.Remote.Coordinator().Stats().CountCalls; got != scans*holders {
						t.Errorf("%s: %d scan calls for %d passes over %d workers, want one per pass and worker",
							name, got, scans, holders)
					}
					inc.Remote.Close()
				}
			}
		}
	}
}

// requireBruteForceTracked recounts the level-wise candidate sets of db at
// minCount with the oracle and fails unless inc tracks exactly them.
func requireBruteForceTracked(t *testing.T, name string, inc *Incremental, db *transactions.DB, numItems, minCount int) {
	t.Helper()
	support := func(s transactions.Itemset) int { return oracle.Support(db.Transactions, s) }
	items := make([]int32, numItems)
	var l1 []int
	for item := range items {
		if items[item] = int32(support(transactions.Itemset{item})); int(items[item]) >= minCount {
			l1 = append(l1, item)
		}
	}
	if !slices.Equal(inc.itemTotals, items) {
		t.Fatalf("%s: item totals %v, want %v", name, inc.itemTotals, items)
	}
	if !slices.Equal(inc.l1Items, l1) {
		t.Fatalf("%s: L1 ranks %v, want %v", name, inc.l1Items, l1)
	}
	n := len(l1)
	tri := make([]int32, n*(n-1)/2)
	var prev []transactions.Itemset // L_{k-1}, lexicographic
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pair := transactions.Itemset{l1[a], l1[b]}
			if tri[transactions.TriIndex(n, a, b)] = int32(support(pair)); int(tri[transactions.TriIndex(n, a, b)]) >= minCount {
				prev = append(prev, pair)
			}
		}
	}
	if !slices.Equal(inc.triTotals, tri) {
		t.Fatalf("%s: pair totals %v, want %v", name, inc.triTotals, tri)
	}
	k := 3
	for ; len(prev) > 0; k++ {
		cands := aprioriGen(prev)
		if len(cands) == 0 {
			break
		}
		if k-3 >= len(inc.levels) {
			t.Fatalf("%s: no tracked level %d, want the %d candidates %v", name, k, len(cands), cands)
		}
		lv := inc.levels[k-3]
		if !slices.EqualFunc(lv.sets, cands, transactions.Itemset.Equal) {
			t.Fatalf("%s: level %d tracks %v, want %v", name, k, lv.sets, cands)
		}
		prev = prev[:0:0]
		for i, cand := range cands {
			if got, want := int(lv.totals[i]), support(cand); got != want {
				t.Fatalf("%s: level %d total of %v = %d, want %d", name, k, cand, got, want)
			}
			if int(lv.totals[i]) >= minCount {
				prev = append(prev, cand)
			}
		}
	}
	if len(inc.levels) != k-3 {
		t.Fatalf("%s: %d tracked levels, want %d", name, len(inc.levels), k-3)
	}
}

// TestIncrementalErrors covers the precondition paths.
func TestIncrementalErrors(t *testing.T) {
	inc := &Incremental{}
	if _, _, err := inc.Maintain(); err != ErrNotAttached {
		t.Fatalf("Maintain before Attach: err=%v, want ErrNotAttached", err)
	}
	store := transactions.NewShardedDB(64)
	if _, _, err := inc.Attach(store, 0); err == nil {
		t.Fatal("Attach with bad support should fail")
	}
	if _, _, err := inc.Attach(store, 0.1); err == nil {
		t.Fatal("Attach to an empty store should fail")
	}
	if err := store.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inc.Attach(store, 0.1); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for store.Len() > 0 {
		if _, err := store.DeleteAt(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := inc.Maintain(); err == nil {
		t.Fatal("Maintain on emptied store should fail")
	}
}

// TestIncrementalRulesMatchScratch: rule maintenance = regenerating rules
// from the maintained counts; they must match rules from a scratch mine.
func TestIncrementalRulesMatchScratch(t *testing.T) {
	pool := incrementalFixture(t, 260)
	store := transactions.NewShardedDB(64)
	for _, tx := range pool[:200] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	inc := &Incremental{}
	if _, _, err := inc.Attach(store, 0.05); err != nil {
		t.Fatal(err)
	}
	for _, tx := range pool[200:] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	mustMaintain(t, inc)
	got, err := GenerateRules(inc.Result(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	scratchRes, err := (&Apriori{}).Mine(store.Snapshot(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateRules(scratchRes, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rules, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("rule %d: %s != %s", i, got[i], want[i])
		}
	}
}

// requireScratchEqual fails unless res is byte-identical to a from-scratch
// Apriori run over the store's current contents and reports the same
// passes: per level, |aprioriGen(L_{k-1})| candidates and |L_k| frequent.
func requireScratchEqual(t *testing.T, store *transactions.ShardedDB, minSup float64, res *Result, step string) {
	t.Helper()
	want, err := (&Apriori{}).Mine(store.Snapshot(), minSup)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Canonical(), want.Canonical()) {
		t.Fatalf("%s: maintained result diverged from a from-scratch run", step)
	}
	if res.MinCount != want.MinCount || res.NumTx != want.NumTx {
		t.Fatalf("%s: MinCount/NumTx %d/%d, want %d/%d", step, res.MinCount, res.NumTx, want.MinCount, want.NumTx)
	}
	if !slices.Equal(res.Passes, want.Passes) {
		t.Fatalf("%s: passes %+v, want %+v", step, res.Passes, want.Passes)
	}
}

// TestIncrementalCountsTheDelta extends the equivalence property to the
// shapes delta counting has to get right: transactions appended and
// deleted inside one batch, random deletes anywhere in the store, and —
// the point of the journal — work that equals the number of ops since the
// last Maintain whatever the shard capacity, where re-counting dirty
// shards scaled with it.
func TestIncrementalCountsTheDelta(t *testing.T) {
	for _, shardCap := range []int{64, 4096} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("cap%d/workers%d", shardCap, workers), func(t *testing.T) {
				pool := incrementalFixture(t, 900)
				store := transactions.NewShardedDB(shardCap)
				for _, tx := range pool[:500] {
					if err := store.Append(tx...); err != nil {
						t.Fatal(err)
					}
				}
				const minSup = 0.03
				inc := &Incremental{Workers: workers}
				if _, stats, err := inc.Attach(store, minSup); err != nil {
					t.Fatal(err)
				} else if !stats.FullRun || stats.RecountedTx != store.Len() {
					t.Fatalf("attach stats = %+v, want a full run counting all %d transactions", stats, store.Len())
				}

				rng := rand.New(rand.NewSource(int64(shardCap + workers)))
				next, incRuns := 500, 0
				for step := 0; step < 14; step++ {
					ops := 0
					for i := rng.Intn(12); i > 0 && next < len(pool); i-- {
						if err := store.Append(pool[next]...); err != nil {
							t.Fatal(err)
						}
						next++
						ops++
					}
					for i := rng.Intn(6); i > 0; i-- {
						if _, err := store.DeleteAt(rng.Intn(store.Len())); err != nil {
							t.Fatal(err)
						}
						ops++
					}
					// Appended and deleted again before any Maintain saw it:
					// the two journal entries must cancel exactly.
					for i := rng.Intn(4); i > 0; i-- {
						if err := store.Append(pool[rng.Intn(len(pool))]...); err != nil {
							t.Fatal(err)
						}
						if _, err := store.DeleteAt(store.Len() - 1); err != nil {
							t.Fatal(err)
						}
						ops += 2
					}
					res, stats := mustMaintain(t, inc)
					requireScratchEqual(t, store, minSup, res, fmt.Sprintf("step %d (stats %+v)", step, stats))
					if stats.FullRun {
						continue
					}
					incRuns++
					if stats.RecountedTx != ops {
						t.Fatalf("step %d: counted %d transactions for a batch of %d ops (stats %+v)", step, stats.RecountedTx, ops, stats)
					}
				}
				if incRuns == 0 {
					t.Fatal("no update was handled incrementally")
				}
			})
		}
	}
}

// TestIncrementalDeleteToEmptyAndRefill empties the store under the
// maintainer, which must refuse to mine nothing, and refills it: the delta
// now dwarfs the live store, so the maintainer re-mines instead of
// counting it, and is incremental again afterwards.
func TestIncrementalDeleteToEmptyAndRefill(t *testing.T) {
	pool := incrementalFixture(t, 300)
	store := transactions.NewShardedDB(64)
	for _, tx := range pool[:200] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	const minSup = 0.05
	inc := &Incremental{}
	if _, _, err := inc.Attach(store, minSup); err != nil {
		t.Fatal(err)
	}
	for store.Len() > 0 {
		if _, err := store.DeleteAt(store.Len() / 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := inc.Maintain(); !errors.Is(err, ErrEmptyDB) {
		t.Fatalf("Maintain on the emptied store: err = %v, want ErrEmptyDB", err)
	}
	for _, tx := range pool[200:260] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	res, stats := mustMaintain(t, inc)
	if !stats.FullRun || stats.Reason == "" {
		t.Fatalf("refill stats = %+v, want a full run with a reason (the delta outgrew the store)", stats)
	}
	requireScratchEqual(t, store, minSup, res, "after the refill")

	for _, tx := range pool[260:270] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	res, stats = mustMaintain(t, inc)
	requireScratchEqual(t, store, minSup, res, "after the follow-up batch")
	if !stats.FullRun && stats.RecountedTx != 10 {
		t.Fatalf("follow-up stats = %+v, want the 10 appended transactions counted", stats)
	}
}

// TestIncrementalIncompleteJournalFallsBack: whenever the store's mutation
// counter says the journal cannot account for the store — it was mutated
// before tracking began, someone else drained it, or tracking was switched
// off and on around a mutation — the maintainer must say so and re-mine.
// Counting what is left of the journal would publish a stale answer.
func TestIncrementalIncompleteJournalFallsBack(t *testing.T) {
	pool := incrementalFixture(t, 400)
	store := transactions.NewShardedDB(64)
	// Mutated, deletes included, before any maintainer looked.
	for _, tx := range pool[:250] {
		if err := store.Append(tx...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := store.DeleteAt(i * 3); err != nil {
			t.Fatal(err)
		}
	}
	const minSup = 0.05
	inc := &Incremental{}
	res, stats, err := inc.Attach(store, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullRun || stats.Reason == "" || stats.RecountedTx != store.Len() {
		t.Fatalf("attach stats = %+v, want a reasoned full run over the %d live transactions", stats, store.Len())
	}
	requireScratchEqual(t, store, minSup, res, "attach to a pre-mutated store")

	next := 250
	mutate := func() {
		for i := 0; i < 6; i++ {
			if err := store.Append(pool[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if _, err := store.DeleteAt(7); err != nil {
			t.Fatal(err)
		}
	}
	interference := map[string]func(){
		"drained by someone else": func() { mutate(); store.Drain(); mutate() },
		"tracking restarted":      func() { mutate(); store.Track(); mutate() },
		"mutated while untracked": func() { store.Untrack(); mutate(); store.Track() },
	}
	for name, interfere := range interference {
		interfere()
		res, stats := mustMaintain(t, inc)
		if !stats.FullRun || !strings.Contains(stats.Reason, "journal incomplete") {
			t.Fatalf("%s: stats = %+v, want a full run blaming the journal", name, stats)
		}
		requireScratchEqual(t, store, minSup, res, name)

		// The re-mine re-synchronised maintainer and journal.
		mutate()
		res, stats = mustMaintain(t, inc)
		requireScratchEqual(t, store, minSup, res, name+", next batch")
		if !stats.FullRun && stats.RecountedTx != 7 {
			t.Fatalf("%s, next batch: stats = %+v, want the 7 ops counted", name, stats)
		}
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on, so a
// test can land a cancellation on any one of a Maintain's context polls.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestIncrementalCancelledCountKeepsDelta cancels a Maintain at each of
// its context polls in turn — before, between and after the counting
// scans, always ahead of the splice — with more mutations arriving after
// every failed attempt. The call that finally goes through must count
// every op since the last successful Maintain exactly once: nothing the
// cancelled calls drained may be lost, and nothing they counted may have
// reached the totals.
func TestIncrementalCancelledCountKeepsDelta(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			// Every attempt appends five more transactions, and the count
			// (transactions.CountTids, all tracked levels as one list) polls
			// before every block of each side and every 4096 candidates
			// within one, and once before the splice, so the pool must
			// outlast that many cancelled attempts; the workers do not count
			// deltas.
			pool := incrementalFixture(t, 800)
			store := transactions.NewShardedDB(64)
			for _, tx := range pool[:400] {
				if err := store.Append(tx...); err != nil {
					t.Fatal(err)
				}
			}
			const minSup = 0.03
			// Generous slack keeps the border out of reach, so every call
			// here stays on the counting path the test is about.
			inc := &Incremental{Workers: workers, TrackSlack: 0.5}
			attached, _, err := inc.Attach(store, minSup)
			if err != nil {
				t.Fatal(err)
			}
			next, ops, cancelled := 400, 0, 0
			for polls := int64(0); ; polls++ {
				for i := 0; i < 5; i++ {
					if err := store.Append(pool[next]...); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if _, err := store.DeleteAt(int(polls) % store.Len()); err != nil {
					t.Fatal(err)
				}
				ops += 6
				ctx := &countdownCtx{Context: context.Background()}
				ctx.left.Store(polls)
				res, stats, err := inc.MaintainContext(ctx)
				if errors.Is(err, context.Canceled) {
					cancelled++
					if inc.Result() != attached {
						t.Fatalf("cancelled after %d polls: the maintained result moved", polls)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				requireScratchEqual(t, store, minSup, res, fmt.Sprintf("first Maintain to survive (%d polls)", polls))
				if stats.FullRun || stats.RecountedTx != ops {
					t.Fatalf("after %d cancelled calls: stats %+v, want all %d ops counted once, incrementally",
						cancelled, stats, ops)
				}
				break
			}
			if cancelled < 3 {
				t.Fatalf("only %d Maintains were cancelled; the count's polls were not reached", cancelled)
			}
			// And the splice happened once: a quiet Maintain changes nothing.
			res, stats := mustMaintain(t, inc)
			if stats.FullRun || stats.RecountedTx != 0 {
				t.Fatalf("quiet Maintain stats = %+v, want no work", stats)
			}
			requireScratchEqual(t, store, minSup, res, "quiet Maintain")
		})
	}
}

// TestIncrementalDetachEndsJournalling: a store pays for the journal only
// while a maintainer is attached to it.
func TestIncrementalDetachEndsJournalling(t *testing.T) {
	first, second := transactions.NewShardedDB(64), transactions.NewShardedDB(64)
	for _, s := range []*transactions.ShardedDB{first, second} {
		for i := 0; i < 20; i++ {
			if err := s.Append(i%4, 4+i%3); err != nil {
				t.Fatal(err)
			}
		}
	}
	journals := func(s *transactions.ShardedDB) bool {
		t.Helper()
		if err := s.Append(1, 2); err != nil {
			t.Fatal(err)
		}
		added, _ := s.Drain()
		return len(added) == 1
	}
	inc := &Incremental{}
	if journals(first) {
		t.Fatal("a store no maintainer attached to is journalling")
	}
	if _, _, err := inc.Attach(first, 0.2); err != nil {
		t.Fatal(err)
	}
	if !journals(first) {
		t.Fatal("Attach did not start the journal")
	}
	if _, _, err := inc.Attach(second, 0.2); err != nil {
		t.Fatal(err)
	}
	if journals(first) || !journals(second) {
		t.Fatal("re-attaching must move the journal from the old store to the new one")
	}
	inc.Detach()
	if journals(second) {
		t.Fatal("Detach left the store journalling")
	}
	if _, _, err := inc.Maintain(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("Maintain after Detach: err = %v, want ErrNotAttached", err)
	}
}
