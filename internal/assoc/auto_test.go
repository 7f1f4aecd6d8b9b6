package assoc

import (
	"testing"

	"repro/internal/transactions"
)

// selectName runs Auto.Select and returns the name Selected reports.
func selectName(t *testing.T, db *transactions.DB, minSup float64) string {
	t.Helper()
	a := &Auto{}
	if _, err := a.Select(db, minSup); err != nil {
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
	// must not fire; with |L1| = 16 the pair explosion check (120 > 4*17)
	// sends the workload to pattern growth instead.
	if err := db.Add(); err != nil {
		t.Fatal(err)
	}
	if got := selectName(t, db, 0.05); got != "FPGrowth" {
		t.Errorf("just below AutoDensityCutoff: selected %s, want FPGrowth", got)
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
	// is barred; 7 items' 21 pair candidates exceed 4*4 transactions, so
	// dispatch lands on FPGrowth.
	if got := selectName(t, dense(AutoMinDenseItems-1), 1); got != "FPGrowth" {
		t.Errorf("below AutoMinDenseItems: selected %s, want FPGrowth", got)
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
