package assoc

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/fptree"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// selectName runs Auto.Mine and returns the name Selected reports.
func selectName(t *testing.T, db *transactions.DB, minSup float64) string {
	t.Helper()
	a := &Auto{}
	if _, err := a.Mine(db, minSup); err != nil {
		t.Fatal(err)
	}
	return a.Selected()
}

// TestAutoSelectDensityCutoffBoundary pins the dense-arm threshold at
// exactly AutoDensityCutoff: mean frequent-item density == 1/16 dispatches
// to the bitset Eclat engine, and one transaction more (nudging the mean
// just below the cutoff) flips the dispatch — so a change to the cutoff or
// to the >= comparison cannot slip through silently.
func TestAutoSelectDensityCutoffBoundary(t *testing.T) {
	// 16 transactions, each a singleton of a distinct item: 16 frequent
	// items of support 1, density = 16/(16*16) = 1/16 — exactly the cutoff.
	db := transactions.NewDB()
	for i := 0; i < 16; i++ {
		if err := db.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := selectName(t, db, 0.05); got != "Eclat" {
		t.Errorf("at exactly AutoDensityCutoff: selected %s, want Eclat", got)
	}
	// One empty transaction more: density 16/(16*17) < 1/16. The dense arm
	// must not fire; no pair is frequent, so C3 is empty and the mine stays
	// level-wise.
	if err := db.Add(); err != nil {
		t.Fatal(err)
	}
	if got := selectName(t, db, 0.05); got != "Apriori" {
		t.Errorf("just below AutoDensityCutoff: selected %s, want Apriori", got)
	}
}

// TestAutoSelectMinDenseItemsBoundary pins the dense-arm floor at exactly
// AutoMinDenseItems frequent items: 8 fully-dense items dispatch to the
// bitset Eclat engine, 7 do not.
func TestAutoSelectMinDenseItemsBoundary(t *testing.T) {
	dense := func(nItems int) *transactions.DB {
		db := transactions.NewDB()
		items := make([]int, nItems)
		for i := range items {
			items[i] = i
		}
		for i := 0; i < 4; i++ {
			if err := db.Add(items...); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	if got := selectName(t, dense(AutoMinDenseItems), 1); got != "Eclat" {
		t.Errorf("at exactly AutoMinDenseItems: selected %s, want Eclat", got)
	}
	// One frequent item fewer at the same (maximal) density: the dense arm
	// is barred, and 7 items' 35 triples are far below autoMaxC3.
	if got := selectName(t, dense(AutoMinDenseItems-1), 1); got != "Apriori" {
		t.Errorf("below AutoMinDenseItems: selected %s, want Apriori", got)
	}
}

// TestAutoSelectDefaultsToApriori pins the fall-through arm: a small
// sparse frequent universe keeps the level-wise engine.
func TestAutoSelectDefaultsToApriori(t *testing.T) {
	db := transactions.NewDB()
	for i := 0; i < 10; i++ {
		if err := db.Add(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(2 + i); err != nil { // a long sparse tail
			t.Fatal(err)
		}
	}
	if got := selectName(t, db, 0.4); got != "Apriori" {
		t.Errorf("sparse small universe: selected %s, want Apriori", got)
	}
	// No frequent items at all also stays level-wise.
	one := transactions.NewDB()
	for i := 0; i < 10; i++ {
		if err := one.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := selectName(t, one, 0.5); got != "Apriori" {
		t.Errorf("no frequent items: selected %s, want Apriori", got)
	}
}

// countingScans counts the scans a driver asks of the scan source it wraps.
type countingScans struct {
	scanSource
	items, pairs, cands, trees int
}

func (c *countingScans) countItems(ctx context.Context) ([]int32, error) {
	c.items++
	return c.scanSource.countItems(ctx)
}

func (c *countingScans) countPairs(ctx context.Context, rank []int, n int) ([]int32, error) {
	c.pairs++
	return c.scanSource.countPairs(ctx, rank, n)
}

func (c *countingScans) countCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int32, error) {
	c.cands++
	return c.scanSource.countCandidates(ctx, k, cands)
}

func (c *countingScans) buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error) {
	c.trees++
	return c.scanSource.buildTree(ctx, ranks)
}

// sparseDB is 40 transactions of 8 items spread over a 4000-item universe,
// then 10 singletons of items of their own: at one occurrence every item
// and pair is frequent, every 8-item transaction brings 56 triples of its
// own, so C3 is far past autoMaxC3, and the singletons' items are frequent
// but in no frequent pair.
func sparseDB(t *testing.T) *transactions.DB {
	t.Helper()
	db := transactions.NewDB()
	for i := 0; i < 40; i++ {
		tx := make([]int, 0, 8)
		for j := 0; j < 8; j++ {
			tx = append(tx, (i*977+j*5003)%4000)
		}
		if err := db.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := db.Add(4000 + i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestAutoScansOnce drives adaptive over a counting scan source: pass 1 is
// scanned once, pass 2 at most once, and the mine then becomes exactly one
// engine — counting candidates level-wise without building a tree, or
// building one forest and counting no candidates — with the result and
// pass stats of that engine run alone.
func TestAutoScansOnce(t *testing.T) {
	quest, err := synth.Baskets(synth.TxI(10, 4, 600, 3))
	if err != nil {
		t.Fatal(err)
	}
	// A 3000-item frequent universe of singletons: its triangle is past
	// autoMaxPairs, so growth starts without a pass 2.
	wide := transactions.NewDB()
	for i := 0; i < 3000; i++ {
		if err := wide.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name      string
		db        *transactions.DB
		minSup    float64
		engine    string
		wantPairs int
	}{
		{"few triples", quest, 0.02, "Apriori", 1},
		{"many triples", sparseDB(t), 0.01, "FPGrowth", 1},
		{"wide triangle", wide, 1.0 / 3000, "FPGrowth", 0},
		{"no frequent item", wide, 0.5, "Apriori", 0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			minCount := tc.db.AbsoluteSupport(tc.minSup)
			src := &countingScans{scanSource: scanLocal(tc.db, workers)}
			res := &Result{MinCount: minCount, NumTx: tc.db.Len()}
			emit := func(stat PassStat, level []ItemsetCount) { res.addPass(nil, stat, level) }
			engine, err := adaptive(context.Background(), src, tc.db.Len(), minCount, workers, res, emit)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if engine != tc.engine {
				t.Errorf("%s workers=%d: became %s, want %s", tc.name, workers, engine, tc.engine)
			}
			if src.items != 1 || src.pairs != tc.wantPairs {
				t.Errorf("%s workers=%d: %d pass-1 and %d pass-2 scans, want 1 and %d", tc.name, workers, src.items, src.pairs, tc.wantPairs)
			}
			if engine == "FPGrowth" && (src.trees != 1 || src.cands != 0) || engine == "Apriori" && src.trees != 0 {
				t.Errorf("%s workers=%d: %d tree builds and %d candidate scans for %s", tc.name, workers, src.trees, src.cands, engine)
			}
			var want *Result
			if engine == "FPGrowth" {
				want, err = (&FPGrowth{Workers: workers}).Mine(tc.db, tc.minSup)
			} else {
				want, err = (&Apriori{Workers: workers}).Mine(tc.db, tc.minSup)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Canonical(), want.Canonical()) || !reflect.DeepEqual(res.Passes, want.Passes) {
				t.Errorf("%s workers=%d: result or passes differ from %s alone\n got %v\nwant %v", tc.name, workers, engine, res.Passes, want.Passes)
			}
		}
	}
}
