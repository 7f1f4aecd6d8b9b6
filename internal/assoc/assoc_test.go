package assoc

import (
	"bytes"
	"errors"
	"testing"

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

// paperExpected lists every frequent itemset of paperDB at minsup 50%.
var paperExpected = map[string]int{
	"1": 2, "2": 3, "3": 3, "5": 3,
	"1,3": 2, "2,3": 2, "2,5": 3, "3,5": 2,
	"2,3,5": 2,
}

// allMiners returns one instance of every algorithm.
func allMiners() []Miner {
	return []Miner{
		&Apriori{},
		&AprioriTid{},
		&AprioriHybrid{},
		&AIS{},
		&SETM{},
		&Partition{NumPartitions: 1},
		&Partition{NumPartitions: 3},
		&DHP{},
		&DHP{NumBuckets: 64},
		&Eclat{},
		&FPGrowth{},
		&Auto{},
		&Sampling{Seed: 7},
		&Sampling{SampleFraction: 0.5, LowerFactor: 0.6, Seed: 9},
	}
}

func resultMap(res *Result) map[string]int {
	out := make(map[string]int)
	for _, ic := range res.All() {
		out[ic.Items.Key()] = ic.Count
	}
	return out
}

func TestAllMinersPaperExample(t *testing.T) {
	db := paperDB(t)
	for _, m := range allMiners() {
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Mine(db, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got := resultMap(res)
			if len(got) != len(paperExpected) {
				t.Errorf("got %d frequent itemsets, want %d: %v", len(got), len(paperExpected), got)
			}
			for key, want := range paperExpected {
				if got[key] != want {
					t.Errorf("support(%s) = %d, want %d", key, got[key], want)
				}
			}
		})
	}
}

// TestMinersAgreeOnSyntheticData is the cross-engine equivalence table:
// the six registered engines and the six reference engines (AIS, SETM,
// AprioriTid, AprioriHybrid, Partition, Sampling — reachable only by
// constructing them, as internal/experiments does) must each return
// Apriori's result byte for byte.
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
	for _, ic := range res.All() {
		if len(ic.Items) < 2 {
			continue
		}
		for _, drop := range ic.Items {
			sub := ic.Items.Without(drop)
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
	if res.NumFrequent() != len(paperExpected) {
		t.Errorf("NumFrequent = %d", res.NumFrequent())
	}
	if res.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", res.MaxLevel())
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

func TestAISCountsMoreCandidatesThanApriori(t *testing.T) {
	// The VLDB'94 claim: AIS generates candidates Apriori's join/prune
	// never would (extensions by infrequent items). At moderate supports,
	// where Apriori's C2 = C(|L1|, 2) stays small, this shows directly in
	// the candidate counts. (At very low supports Apriori's C2 dominates
	// by count but is counted cheaply in one hash-tree scan; the paper's
	// comparison is execution time, reproduced in EXP-A1.)
	db, err := synth.Baskets(synth.TxI(8, 3, 300, 41))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := (&Apriori{}).Mine(db, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	ais, err := (&AIS{}).Mine(db, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	apCands, aisCands := 0, 0
	for _, p := range ap.Passes[1:] { // skip pass 1 (same for both)
		apCands += p.Candidates
	}
	for _, p := range ais.Passes[1:] {
		aisCands += p.Candidates
	}
	if aisCands <= apCands {
		t.Errorf("AIS candidates %d <= Apriori candidates %d; expected more", aisCands, apCands)
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

func TestParseKeyRoundTrip(t *testing.T) {
	for _, s := range []transactions.Itemset{
		transactions.NewItemset(0),
		transactions.NewItemset(1, 22, 333),
		transactions.NewItemset(7, 1000000),
	} {
		if got := parseKey(s.Key()); !got.Equal(s) {
			t.Errorf("parseKey(%q) = %v, want %v", s.Key(), got, s)
		}
	}
}

func TestForEachSubset(t *testing.T) {
	s := transactions.NewItemset(1, 2, 3, 4)
	var got []string
	forEachSubset(s, 2, func(sub transactions.Itemset) {
		got = append(got, sub.Key())
	})
	if len(got) != 6 {
		t.Fatalf("2-subsets of 4 items = %d, want 6: %v", len(got), got)
	}
}

func TestChoose(t *testing.T) {
	tests := []struct{ n, k, want int }{
		{4, 2, 6}, {5, 0, 1}, {5, 5, 1}, {3, 4, 0}, {10, 3, 120},
	}
	for _, tt := range tests {
		if got := choose(tt.n, tt.k); got != tt.want {
			t.Errorf("choose(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
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

func TestHybridSwitches(t *testing.T) {
	// With a huge budget the hybrid switches immediately after pass 2;
	// results must still match Apriori.
	db, err := synth.Baskets(synth.TxI(6, 2, 150, 51))
	if err != nil {
		t.Fatal(err)
	}
	want := resultMapFrom(t, &Apriori{}, db, 0.03)
	hybrid := &AprioriHybrid{BudgetEntries: 1 << 30}
	got := resultMapFrom(t, hybrid, db, 0.03)
	compareMaps(t, "hybrid(big budget)", got, want)

	// With budget 1 it never switches (pure Apriori path).
	hybrid = &AprioriHybrid{BudgetEntries: 1}
	got = resultMapFrom(t, hybrid, db, 0.03)
	compareMaps(t, "hybrid(budget 1)", got, want)
}

func resultMapFrom(t *testing.T, m Miner, db *transactions.DB, minSup float64) map[string]int {
	t.Helper()
	res, err := m.Mine(db, minSup)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return resultMap(res)
}

func compareMaps(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d itemsets, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: support(%s) = %d, want %d", label, k, got[k], w)
		}
	}
}
