package assoc

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// paperDB is the worked example from Agrawal & Srikant (VLDB'94 Fig. 3):
// four transactions over items 1..5, minsup 2 transactions.
func paperDB(t *testing.T) *transactions.DB {
	t.Helper()
	db := transactions.NewDB()
	for _, tx := range [][]int{
		{1, 3, 4},
		{2, 3, 5},
		{1, 2, 3, 5},
		{2, 5},
	} {
		if err := db.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// allMiners returns one instance of every local registered engine (the
// reference engines have the same tables in internal/assoc/reference).
func allMiners() []Miner {
	return []Miner{
		&Apriori{},
		&Eclat{},
		&FPGrowth{},
		&Auto{},
	}
}

// TestAllMinersPaperExample checks every engine on the VLDB'94 example
// against the oracle, whose own test pins that example's nine itemsets.
func TestAllMinersPaperExample(t *testing.T) {
	db := paperDB(t)
	want := oracle.Canonical(oracle.Frequent(db.Transactions, 0.5))
	for _, m := range allMiners() {
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Mine(db, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Canonical(); !bytes.Equal(got, want) {
				t.Errorf("Canonical = %q, oracle %q", got, want)
			}
		})
	}
}

// TestMinersAgreeOnSyntheticData is the cross-engine equivalence table:
// the registered engines must each return Apriori's result byte for byte.
func TestMinersAgreeOnSyntheticData(t *testing.T) {
	db, err := synth.Baskets(synth.BasketConfig{
		NumTransactions: 300, AvgTxSize: 8, AvgPatternSize: 3,
		NumPatterns: 40, NumItems: 60,
		CorruptionMean: 0.4, CorruptionSD: 0.1, CorrelationMean: 0.5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines, cleanup := degenerateEngines()
	defer cleanup()
	for _, minSup := range []float64{0.1, 0.05, 0.02} {
		want, err := (&Apriori{}).Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range engines[1:] {
			got, err := m.Mine(db, minSup)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Errorf("%s at %v: %d itemsets diverge from Apriori's %d",
					m.Name(), minSup, got.NumFrequent(), want.NumFrequent())
			}
		}
	}
}

func TestMineInputValidation(t *testing.T) {
	db := paperDB(t)
	for _, m := range allMiners() {
		if _, err := m.Mine(db, 0); !errors.Is(err, ErrBadSupport) {
			t.Errorf("%s: minsup 0 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(db, 1.5); !errors.Is(err, ErrBadSupport) {
			t.Errorf("%s: minsup 1.5 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(transactions.NewDB(), 0.5); !errors.Is(err, ErrEmptyDB) {
			t.Errorf("%s: empty db error = %v", m.Name(), err)
		}
	}
}

func TestSupportMonotonicity(t *testing.T) {
	// Anti-monotone property: every subset of a frequent itemset is
	// frequent with at least the same support.
	db, err := synth.Baskets(synth.TxI(6, 2, 200, 31))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Apriori{}).Mine(db, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, ic := range slices.Concat(res.Levels...) {
		if len(ic.Items) < 2 {
			continue
		}
		for i := range ic.Items {
			sub := slices.Delete(slices.Clone(ic.Items), i, i+1)
			subSup, ok := res.Support(sub)
			if !ok {
				t.Fatalf("subset %v of frequent %v is not frequent", sub, ic.Items)
			}
			if subSup < ic.Count {
				t.Fatalf("support(%v)=%d < support(%v)=%d", sub, subSup, ic.Items, ic.Count)
			}
		}
	}
}

func TestResultSupportLookup(t *testing.T) {
	db := paperDB(t)
	res, err := (&Apriori{}).Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sup, ok := res.Support(transactions.NewItemset(2, 3, 5)); !ok || sup != 2 {
		t.Errorf("Support(2,3,5) = %d, %v", sup, ok)
	}
	if _, ok := res.Support(transactions.NewItemset(4)); ok {
		t.Error("item 4 should be infrequent")
	}
	if res.NumFrequent() != 9 {
		t.Errorf("NumFrequent = %d", res.NumFrequent())
	}
	if res.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", res.MaxLevel())
	}
	// Lengths outside the levels are never frequent.
	if _, ok := res.Support(nil); ok {
		t.Error("the empty itemset should not be frequent")
	}
	if _, ok := res.Support(transactions.NewItemset(1, 2, 3, 5)); ok {
		t.Error("a 4-itemset should not be frequent past MaxLevel 3")
	}
}

// TestCanonicalEncoding pins Canonical's bytes: one "items:count" line
// per itemset, items comma-separated, in level then lexicographic order,
// with multi-digit items and counts and an empty level in between (as
// Sampling can leave); an empty result encodes as nil. The buffer is
// sized exactly.
func TestCanonicalEncoding(t *testing.T) {
	ic := func(count int, items ...int) ItemsetCount {
		return ItemsetCount{Items: transactions.NewItemset(items...), Count: count}
	}
	for _, tc := range []struct {
		name   string
		levels [][]ItemsetCount
		want   string
	}{
		{"empty", nil, ""},
		{"single digits", [][]ItemsetCount{{ic(3, 0), ic(9, 7)}, {ic(2, 0, 7)}}, "0:3\n7:9\n0,7:2\n"},
		{"multi-digit", [][]ItemsetCount{
			{ic(10, 9), ic(1000000, 10), ic(99, 12345)},
			{ic(100, 9, 10), ic(7, 10, 12345)},
			{ic(1, 9, 10, 12345)},
		}, "9:10\n10:1000000\n12345:99\n9,10:100\n10,12345:7\n9,10,12345:1\n"},
		{"empty middle level", [][]ItemsetCount{{ic(42, 100)}, nil, {ic(40, 1, 20, 300)}}, "100:42\n1,20,300:40\n"},
	} {
		got := (&Result{Levels: tc.levels}).Canonical()
		if string(got) != tc.want {
			t.Errorf("%s: Canonical = %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == "" && got != nil {
			t.Errorf("%s: Canonical = %q, want nil", tc.name, got)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: buffer cap %d for %d bytes", tc.name, cap(got), len(got))
		}
	}
}

func TestPassStatsRecorded(t *testing.T) {
	db := paperDB(t)
	res, err := (&Apriori{}).Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 3 {
		t.Fatalf("passes = %v", res.Passes)
	}
	if res.Passes[0].K != 1 || res.Passes[0].Frequent != 4 {
		t.Errorf("pass 1 = %+v", res.Passes[0])
	}
	if res.Passes[1].K != 2 || res.Passes[1].Frequent != 4 {
		t.Errorf("pass 2 = %+v", res.Passes[1])
	}
	// Apriori candidate generation for pass 3 from {13,23,25,35}:
	// join gives {2,3,5} only ({1,3}+{1,?} none; {2,3}+{2,5} -> {2,3,5};
	// {3,5} no partner), prune keeps it.
	if res.Passes[2].Candidates != 1 || res.Passes[2].Frequent != 1 {
		t.Errorf("pass 3 = %+v", res.Passes[2])
	}
}

func TestAprioriGenJoinAndPrune(t *testing.T) {
	// L2 = {12, 13, 14, 23, 24}: join gives 123, 124, 134, 234; prune
	// removes 134 (34 missing) and 234 (34 missing).
	prev := []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 3),
		transactions.NewItemset(1, 4),
		transactions.NewItemset(2, 3),
		transactions.NewItemset(2, 4),
	}
	got := aprioriGen(prev)
	if len(got) != 2 {
		t.Fatalf("candidates = %v", got)
	}
	if !got[0].Equal(transactions.NewItemset(1, 2, 3)) || !got[1].Equal(transactions.NewItemset(1, 2, 4)) {
		t.Errorf("candidates = %v", got)
	}
	// The capped form counts only candidates that survive the prune: two
	// fit a limit of two, not of one.
	if capped, ok := aprioriGenUpTo(prev, 2); !ok || len(capped) != 2 {
		t.Errorf("aprioriGenUpTo(prev, 2) = %v, %v", capped, ok)
	}
	if capped, ok := aprioriGenUpTo(prev, 1); ok || capped != nil {
		t.Errorf("aprioriGenUpTo(prev, 1) = %v, %v; want nil, false", capped, ok)
	}
	// Length 4 from L3 = {123, 124, 134, 234, 125}: 1234 keeps all four
	// subsets, 1245 lacks 145 and 245.
	l3 := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(1, 2, 4),
		transactions.NewItemset(1, 2, 5),
		transactions.NewItemset(1, 3, 4),
		transactions.NewItemset(2, 3, 4),
	}
	if got := aprioriGen(l3); len(got) != 1 || !got[0].Equal(transactions.NewItemset(1, 2, 3, 4)) {
		t.Errorf("length-4 candidates = %v, want [1 2 3 4]", got)
	}
}

func TestAprioriGenEmpty(t *testing.T) {
	if got := aprioriGen(nil); got != nil {
		t.Errorf("aprioriGen(nil) = %v", got)
	}
}

func TestSingleItemOnlyDB(t *testing.T) {
	db := transactions.NewDB()
	for i := 0; i < 10; i++ {
		if err := db.Add(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range allMiners() {
		res, err := m.Mine(db, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.NumFrequent() != 1 {
			t.Errorf("%s: frequent = %d, want 1", m.Name(), res.NumFrequent())
		}
	}
}

func TestNoFrequentItemsets(t *testing.T) {
	db := transactions.NewDB()
	for i := 0; i < 10; i++ {
		if err := db.Add(i); err != nil { // every item appears once
			t.Fatal(err)
		}
	}
	for _, m := range allMiners() {
		res, err := m.Mine(db, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.NumFrequent() != 0 {
			t.Errorf("%s: frequent = %d, want 0", m.Name(), res.NumFrequent())
		}
	}
}
