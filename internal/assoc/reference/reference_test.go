package reference

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/assoc"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// paperDB is the worked example from Agrawal & Srikant (VLDB'94 Fig. 3):
// four transactions over items 1..5, minsup 2 transactions.
func paperDB(t *testing.T) *transactions.DB {
	t.Helper()
	return dbOf(t, []int{1, 3, 4}, []int{2, 3, 5}, []int{1, 2, 3, 5}, []int{2, 5})
}

func dbOf(t *testing.T, rows ...[]int) *transactions.DB {
	t.Helper()
	db := transactions.NewDB()
	for _, row := range rows {
		if err := db.Add(row...); err != nil {
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

// referenceMiners returns one instance of every reference engine, with
// Partition and Sampling in two configurations each.
func referenceMiners() []assoc.Miner {
	return []assoc.Miner{
		&AprioriTid{},
		&AprioriHybrid{},
		&AIS{},
		&SETM{},
		&Partition{NumPartitions: 1},
		&Partition{NumPartitions: 3},
		&Sampling{Seed: 7},
		&Sampling{SampleFraction: 0.5, LowerFactor: 0.6, Seed: 9},
	}
}

func resultMap(res *assoc.Result) map[string]int {
	out := make(map[string]int)
	for _, ic := range res.All() {
		out[ic.Items.Key()] = ic.Count
	}
	return out
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

func mine(t *testing.T, m assoc.Miner, db *transactions.DB, minSup float64) *assoc.Result {
	t.Helper()
	res, err := m.Mine(db, minSup)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return res
}

func TestAllMinersPaperExample(t *testing.T) {
	db := paperDB(t)
	want := mine(t, &assoc.Apriori{}, db, 0.5).Canonical()
	for _, m := range referenceMiners() {
		t.Run(m.Name(), func(t *testing.T) {
			res := mine(t, m, db, 0.5)
			compareMaps(t, m.Name(), resultMap(res), paperExpected)
			if !bytes.Equal(res.Canonical(), want) {
				t.Errorf("Canonical = %q, want Apriori's %q", res.Canonical(), want)
			}
		})
	}
}

// equivalenceDB is the fixture of the cross-engine equivalence table, the
// same one assoc's registered engines are checked on.
func equivalenceDB(t *testing.T) *transactions.DB {
	t.Helper()
	db, err := synth.Baskets(synth.BasketConfig{
		NumTransactions: 300, AvgTxSize: 8, AvgPatternSize: 3,
		NumPatterns: 40, NumItems: 60,
		CorruptionMean: 0.4, CorruptionSD: 0.1, CorrelationMean: 0.5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMinersAgreeOnSyntheticData is the equivalence table of the
// reference engines: each must return Apriori's result byte for byte.
func TestMinersAgreeOnSyntheticData(t *testing.T) {
	db := equivalenceDB(t)
	for _, minSup := range []float64{0.1, 0.05, 0.02} {
		want := mine(t, &assoc.Apriori{}, db, minSup)
		for _, m := range referenceMiners() {
			if got := mine(t, m, db, minSup); !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Errorf("%s at %v: %d itemsets diverge from Apriori's %d",
					m.Name(), minSup, got.NumFrequent(), want.NumFrequent())
			}
		}
	}
}

// pinnedPasses is each reference engine's pass table (K, candidates,
// frequent) on the equivalence fixture, as the engines reported it before
// they moved onto the production counting kernels. The candidate counts
// are the algorithms' own — what paper tables A1 to A6 compare — so a
// counting change must leave every row as it is.
var pinnedPasses = []struct {
	miner  assoc.Miner
	passes map[float64][][3]int
}{
	{&AIS{}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 589, 95}, {3, 1271, 60}, {4, 488, 6}, {5, 53, 0}},
		0.05: {{1, 60, 35}, {2, 688, 223}, {3, 2747, 311}, {4, 2491, 152}, {5, 789, 13}, {6, 68, 0}},
		0.02: {{1, 60, 41}, {2, 799, 461}, {3, 5043, 1424}, {4, 10564, 1612}, {5, 8238, 883}, {6, 3029, 236}, {7, 533, 32}, {8, 52, 2}, {9, 4, 0}},
	}},
	{&SETM{}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 589, 95}, {3, 1271, 60}, {4, 488, 6}, {5, 53, 0}},
		0.05: {{1, 60, 35}, {2, 688, 223}, {3, 2747, 311}, {4, 2491, 152}, {5, 789, 13}, {6, 68, 0}},
		0.02: {{1, 60, 41}, {2, 799, 461}, {3, 5043, 1424}, {4, 10564, 1612}, {5, 8238, 883}, {6, 3029, 236}, {7, 533, 32}, {8, 52, 2}, {9, 4, 0}},
	}},
	{&AprioriTid{}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 351, 95}, {3, 218, 60}, {4, 26, 6}},
		0.05: {{1, 60, 35}, {2, 595, 223}, {3, 927, 311}, {4, 360, 152}, {5, 35, 13}},
		0.02: {{1, 60, 41}, {2, 820, 461}, {3, 3167, 1424}, {4, 2921, 1612}, {5, 1258, 883}, {6, 308, 236}, {7, 36, 32}, {8, 2, 2}},
	}},
	{&AprioriHybrid{}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 351, 95}, {3, 218, 60}, {4, 26, 6}},
		0.05: {{1, 60, 35}, {2, 595, 223}, {3, 927, 311}, {4, 360, 152}, {5, 35, 13}},
		0.02: {{1, 60, 41}, {2, 820, 461}, {3, 3167, 1424}, {4, 2921, 1612}, {5, 1258, 883}, {6, 308, 236}, {7, 36, 32}, {8, 2, 2}},
	}},
	{&Partition{NumPartitions: 1}, map[float64][][3]int{
		0.1:  {{1, 27, 27}, {2, 95, 95}, {3, 60, 60}, {4, 6, 6}},
		0.05: {{1, 35, 35}, {2, 223, 223}, {3, 311, 311}, {4, 152, 152}, {5, 13, 13}},
		0.02: {{1, 41, 41}, {2, 461, 461}, {3, 1424, 1424}, {4, 1612, 1612}, {5, 883, 883}, {6, 236, 236}, {7, 32, 32}, {8, 2, 2}},
	}},
	{&Partition{NumPartitions: 3}, map[float64][][3]int{
		0.1:  {{1, 33, 27}, {2, 141, 95}, {3, 132, 60}, {4, 29, 6}, {5, 2, 0}},
		0.05: {{1, 40, 35}, {2, 338, 223}, {3, 709, 311}, {4, 540, 152}, {5, 183, 13}, {6, 20, 0}, {7, 1, 0}},
		0.02: {{1, 43, 41}, {2, 633, 461}, {3, 3281, 1424}, {4, 7026, 1612}, {5, 7737, 883}, {6, 5136, 236}, {7, 2247, 32}, {8, 698, 2}, {9, 160, 0}, {10, 25, 0}, {11, 2, 0}},
	}},
	{&Sampling{Seed: 7}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 378, 95}, {3, 493, 59}, {4, 84, 3}, {5, 4, 0}},
		0.05: {{1, 60, 35}, {2, 595, 222}, {3, 1284, 291}, {4, 619, 105}, {5, 191, 6}, {6, 53, 0}},
		0.02: {{1, 60, 41}, {2, 703, 449}, {3, 2328, 1173}, {4, 1995, 903}, {5, 1127, 305}, {6, 498, 43}, {7, 151, 1}, {8, 30, 0}},
	}},
	{&Sampling{SampleFraction: 0.5, LowerFactor: 0.6, Seed: 9}, map[float64][][3]int{
		0.1:  {{1, 60, 27}, {2, 595, 95}, {3, 706, 60}, {4, 159, 6}, {5, 7, 0}},
		0.05: {{1, 60, 35}, {2, 780, 223}, {3, 1710, 311}, {4, 990, 152}, {5, 269, 13}, {6, 24, 0}},
		0.02: {{1, 60, 41}, {2, 903, 461}, {3, 4999, 1422}, {4, 6566, 1517}, {5, 4585, 808}, {6, 2423, 218}, {7, 984, 32}, {8, 320, 2}, {9, 80, 0}},
	}},
}

// TestPassesPinned checks every reference engine's pass table against
// pinnedPasses.
func TestPassesPinned(t *testing.T) {
	db := equivalenceDB(t)
	for i, pin := range pinnedPasses {
		for _, minSup := range []float64{0.1, 0.05, 0.02} {
			var got [][3]int
			for _, p := range mine(t, pin.miner, db, minSup).Passes {
				got = append(got, [3]int{p.K, p.Candidates, p.Frequent})
			}
			if want := pin.passes[minSup]; !slices.Equal(got, want) {
				t.Errorf("%s (lineup %d) at %v: passes\n got %v\nwant %v", pin.miner.Name(), i, minSup, got, want)
			}
		}
	}
}

func TestMineInputValidation(t *testing.T) {
	db := paperDB(t)
	for _, m := range referenceMiners() {
		if _, err := m.Mine(db, 0); !errors.Is(err, assoc.ErrBadSupport) {
			t.Errorf("%s: minsup 0 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(db, 1.5); !errors.Is(err, assoc.ErrBadSupport) {
			t.Errorf("%s: minsup 1.5 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(transactions.NewDB(), 0.5); !errors.Is(err, assoc.ErrEmptyDB) {
			t.Errorf("%s: empty db error = %v", m.Name(), err)
		}
	}
}

// TestDegenerateInputsUniformAcrossEngines holds the reference engines to
// assoc's degenerate-input contract: an empty or nil database and a
// support outside (0, 1] yield the matching sentinel error and the
// canonical empty Result — non-nil, no levels, no passes, no counts.
func TestDegenerateInputsUniformAcrossEngines(t *testing.T) {
	db := paperDB(t)
	cases := []struct {
		name    string
		db      *transactions.DB
		minSup  float64
		wantErr error
	}{
		{"empty db", transactions.NewDB(), 0.5, assoc.ErrEmptyDB},
		{"nil db", nil, 0.5, assoc.ErrEmptyDB},
		{"zero support", db, 0, assoc.ErrBadSupport},
		{"negative support", db, -0.25, assoc.ErrBadSupport},
		{"support above one", db, 1.5, assoc.ErrBadSupport},
	}
	for _, m := range referenceMiners() {
		for _, tc := range cases {
			res, err := m.Mine(tc.db, tc.minSup)
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s / %s: err = %v, want %v", m.Name(), tc.name, err, tc.wantErr)
			}
			if res == nil {
				t.Errorf("%s / %s: nil Result; want the canonical empty one", m.Name(), tc.name)
				continue
			}
			if res.NumFrequent() != 0 || res.MaxLevel() != 0 || len(res.Passes) != 0 ||
				len(res.Canonical()) != 0 || res.MinCount != 0 || res.NumTx != 0 {
				t.Errorf("%s / %s: non-empty degenerate Result: %+v", m.Name(), tc.name, res)
			}
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
	for _, m := range referenceMiners() {
		if n := mine(t, m, db, 0.5).NumFrequent(); n != 1 {
			t.Errorf("%s: frequent = %d, want 1", m.Name(), n)
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
	for _, m := range referenceMiners() {
		if n := mine(t, m, db, 0.5).NumFrequent(); n != 0 {
			t.Errorf("%s: frequent = %d, want 0", m.Name(), n)
		}
	}
}

// bruteForceFrequent enumerates every itemset over a small universe and
// counts supports directly — the oracle for the miners.
func bruteForceFrequent(db *transactions.DB, minCount, universe int) map[string]int {
	out := make(map[string]int)
	var rec func(start int, current transactions.Itemset)
	rec = func(start int, current transactions.Itemset) {
		for item := start; item < universe; item++ {
			next := append(current, item)
			// Anti-monotonicity: no superset of an infrequent set can be
			// frequent, so not recursing is exact, not a heuristic.
			if sup := db.Support(next); sup >= minCount {
				out[next.Key()] = sup
				rec(item+1, next)
			}
		}
	}
	rec(0, nil)
	return out
}

// TestMinersMatchBruteForceProperty drives every reference engine against
// the oracle on random small databases.
func TestMinersMatchBruteForceProperty(t *testing.T) {
	const universe = 8
	f := func(seed int64, minRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := transactions.NewDB()
		nTx := 4 + rng.Intn(20)
		for i := 0; i < nTx; i++ {
			items := make([]int, 1+rng.Intn(5))
			for j := range items {
				items[j] = rng.Intn(universe)
			}
			if err := db.Add(items...); err != nil {
				return false
			}
		}
		minSup := 0.1 + float64(minRaw%60)/100.0 // 10%..69%
		want := bruteForceFrequent(db, db.AbsoluteSupport(minSup), universe)
		for _, m := range referenceMiners() {
			res, err := m.Mine(db, minSup)
			if err != nil {
				t.Logf("%s: %v", m.Name(), err)
				return false
			}
			if got := resultMap(res); !maps.Equal(got, want) {
				t.Logf("%s: %d itemsets, oracle %d (seed %d minSup %v)", m.Name(), len(got), len(want), seed, minSup)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestZeroValueOptionDefaults: the zero-valued engine must behave exactly
// like the one with its documented defaults spelled out.
//
//	Partition      NumPartitions<=1 degenerates to one partition
//	Sampling       SampleFraction=0.2, LowerFactor=0.8
//	AprioriHybrid  BudgetEntries=8*|D|
func TestZeroValueOptionDefaults(t *testing.T) {
	db, err := synth.Baskets(synth.TxI(8, 3, 400, 31))
	if err != nil {
		t.Fatal(err)
	}
	const minSup = 0.01
	for _, tc := range []struct {
		name           string
		zero, explicit assoc.Miner
	}{
		{"Partition", &Partition{}, &Partition{NumPartitions: 1}},
		{"Sampling", &Sampling{}, &Sampling{SampleFraction: 0.2, LowerFactor: 0.8}},
		{"AprioriHybrid", &AprioriHybrid{}, &AprioriHybrid{BudgetEntries: 8 * 400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Equal(mine(t, tc.zero, db, minSup).Canonical(), mine(t, tc.explicit, db, minSup).Canonical()) {
				t.Fatalf("zero-value %s differs from its documented defaults", tc.name)
			}
		})
	}

	// Partition's zero value also names itself without a partition count.
	if got := (&Partition{}).Name(); got != "Partition" {
		t.Errorf("zero Partition name = %q", got)
	}
}
