package assoc

import (
	"bytes"
	"math/rand"
	"testing"

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

// TestIncrementalAgreesAcrossBaseMiners checks that the maintainer plumbed
// through each level-wise miner (and Eclat) as the
// full-run base produces the same bytes.
func TestIncrementalAgreesAcrossBaseMiners(t *testing.T) {
	pool := incrementalFixture(t, 300)
	bases := []Miner{
		&Apriori{},
		&DHP{},
		&Partition{NumPartitions: 3},
		&Eclat{},
		&FPGrowth{},
		&FPGrowth{Workers: 4},
		&Partition{NumPartitions: 3, LocalMiner: &FPGrowth{}},
	}
	var want []byte
	for _, b := range bases {
		store := transactions.NewShardedDB(64)
		for _, tx := range pool[:250] {
			if err := store.Append(tx...); err != nil {
				t.Fatal(err)
			}
		}
		inc := &Incremental{Base: b}
		if _, _, err := inc.Attach(store, 0.04); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for _, tx := range pool[250:] {
			if err := store.Append(tx...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := store.DeleteAt(10); err != nil {
			t.Fatal(err)
		}
		res, _ := mustMaintain(t, inc)
		got := res.Canonical()
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%s as base miner diverged", b.Name())
		}
	}
}

// TestIncrementalErrors covers the precondition paths.
func TestIncrementalErrors(t *testing.T) {
	inc := &Incremental{}
	if _, _, err := inc.Maintain(); err != ErrNotAttached {
		t.Fatalf("Maintain before Attach: err=%v, want ErrNotAttached", err)
	}
	if _, err := inc.Rules(0.5); err != ErrNotAttached {
		t.Fatalf("Rules before Attach: err=%v, want ErrNotAttached", err)
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
	got, err := inc.Rules(0.6)
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
