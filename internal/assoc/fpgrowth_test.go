package assoc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/synth"
	"repro/internal/transactions"
)

// TestFPGrowthMatchesAprioriProperty is the acceptance property of the
// pattern-growth engine: FPGrowth's canonical result bytes equal Apriori's
// on random databases, at workers 1, 2 and 8.
func TestFPGrowthMatchesAprioriProperty(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := randomDB(seed)
		minSup := 0.05 + float64(minRaw%70)/100.0
		want, err := (&Apriori{}).Mine(db, minSup)
		if err != nil {
			t.Logf("Apriori: %v", err)
			return false
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := (&FPGrowth{Workers: workers}).Mine(db, minSup)
			if err != nil {
				t.Logf("FPGrowth workers=%d: %v", workers, err)
				return false
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Logf("FPGrowth workers=%d diverges (seed %d minSup %v)\n got %s\nwant %s",
					workers, seed, minSup, got.Canonical(), want.Canonical())
				return false
			}
			if got.MinCount != want.MinCount || got.NumTx != want.NumTx {
				t.Logf("FPGrowth workers=%d: MinCount/NumTx diverge", workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFPGrowthMatchesAprioriSynthetic pins byte-identity on a Quest
// workload deep enough to exercise multi-level conditional trees, the
// single-path shortcut, and every shard boundary of the parallel build.
func TestFPGrowthMatchesAprioriSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workload")
	}
	db, err := synth.Baskets(synth.TxI(10, 4, 800, 94))
	if err != nil {
		t.Fatal(err)
	}
	for _, minSup := range []float64{0.05, 0.01, 0.005} {
		want, err := (&Apriori{}).Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := (&FPGrowth{Workers: workers}).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Errorf("FPGrowth workers=%d at minsup %v diverges from Apriori", workers, minSup)
			}
		}
	}
}

// TestForestEqualsSingleTree holds forest mining to one-tree mining: on
// seeded Quest data, FPGrowth over 1, 2, 3 and 8 shard trees — shard counts
// that do and do not divide the database evenly — is byte-identical to
// FPGrowth over the single tree of the whole database, and to Apriori.
func TestForestEqualsSingleTree(t *testing.T) {
	for _, seed := range []int64{7, 94} {
		db, err := synth.Baskets(synth.TxI(8, 3, 501, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, minSup := range []float64{0.03, 0.008} {
			apriori, err := (&Apriori{}).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			oneTree, err := (&FPGrowth{Workers: 1}).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(oneTree.Canonical(), apriori.Canonical()) {
				t.Fatalf("seed %d minsup %v: one-tree FPGrowth diverges from Apriori", seed, minSup)
			}
			for _, shards := range []int{1, 2, 3, 8} {
				got, err := (&FPGrowth{Workers: shards}).Mine(db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Canonical(), oneTree.Canonical()) {
					t.Errorf("seed %d minsup %v: forest of %d trees diverges from the single tree", seed, minSup, shards)
				}
			}
		}
	}
}

// TestFPGrowthPassStats pins the pass-stat shape: pass 1 reports the item
// scan, later passes mirror the frequent counts (pattern growth has no
// candidate sets), and levels agree with the stats.
func TestFPGrowthPassStats(t *testing.T) {
	db := paperDB(t)
	res, err := (&FPGrowth{}).Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes[0].K != 1 || res.Passes[0].Candidates != db.NumItems() {
		t.Fatalf("pass 1 = %+v", res.Passes[0])
	}
	if len(res.Passes) != len(res.Levels) {
		t.Fatalf("%d passes for %d levels", len(res.Passes), len(res.Levels))
	}
	for i, p := range res.Passes {
		if p.Frequent != len(res.Levels[i]) {
			t.Errorf("pass %d: Frequent = %d, level has %d", p.K, p.Frequent, len(res.Levels[i]))
		}
	}
}

// TestAutoDispatch pins Auto's three arms and that Selected reports the
// engine the mine became.
func TestAutoDispatch(t *testing.T) {
	a := &Auto{}
	if a.Selected() != "" {
		t.Fatalf("Selected before Mine = %q", a.Selected())
	}

	// Dense small universe (>= AutoMinDenseItems frequent items, high mean
	// density) → bitset Eclat.
	dense := transactions.NewDB()
	for i := 0; i < 200; i++ {
		if err := dense.Add(i%10, 10+i%5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Mine(dense, 0.05); err != nil {
		t.Fatal(err)
	}
	if a.Selected() != "Eclat" {
		t.Errorf("dense: selected %q, want Eclat", a.Selected())
	}

	// Sparse, with far more triples than autoMaxC3 → FPGrowth.
	if _, err := a.Mine(sparseDB(t), 0.01); err != nil {
		t.Fatal(err)
	}
	if a.Selected() != "FPGrowth" {
		t.Errorf("sparse low-support: selected %q, want FPGrowth", a.Selected())
	}

	// Tiny frequent universe → Apriori.
	small := paperDB(t)
	if _, err := a.Mine(small, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.Selected() != "Apriori" {
		t.Errorf("small: selected %q, want Apriori", a.Selected())
	}

	// Dispatch must not change results.
	db, err := synth.Baskets(synth.TxI(8, 3, 300, 5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Apriori{}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Auto{Workers: 2}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Canonical(), want.Canonical()) {
		t.Error("Auto result diverges from Apriori")
	}
}
