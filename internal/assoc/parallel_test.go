package assoc

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// randomDB mirrors the property-test generator: small random databases
// over a small universe, where the brute-force oracle is feasible.
func randomDB(seed int64) *transactions.DB {
	rng := rand.New(rand.NewSource(seed))
	db := transactions.NewDB()
	nTx := 4 + rng.Intn(30)
	for i := 0; i < nTx; i++ {
		n := 1 + rng.Intn(6)
		items := make([]int, n)
		for j := range items {
			items[j] = rng.Intn(9)
		}
		if err := db.Add(items...); err != nil {
			panic(err)
		}
	}
	return db
}

// parallelVariants returns, for a worker count, the miners whose results
// must be identical to their serial counterparts.
func parallelVariants(workers int) []Miner {
	return []Miner{
		&Apriori{Workers: workers},
		&Eclat{Workers: workers},
		&FPGrowth{Workers: workers},
	}
}

func serialCounterpart(m Miner) Miner {
	switch v := m.(type) {
	case *Apriori:
		cp := *v
		cp.Workers = 0
		return &cp
	case *Eclat:
		cp := *v
		cp.Workers = 0
		return &cp
	case *FPGrowth:
		cp := *v
		cp.Workers = 0
		return &cp
	}
	return m
}

// TestParallelMinersMatchSerialProperty checks that every parallel miner
// configuration returns byte-identical Result levels (and pass stats) to
// its serial counterpart on random databases, for workers 1, 2 and 8.
func TestParallelMinersMatchSerialProperty(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := randomDB(seed)
		minSup := 0.1 + float64(minRaw%60)/100.0
		for _, workers := range []int{1, 2, 8} {
			for _, m := range parallelVariants(workers) {
				want, err := serialCounterpart(m).Mine(db, minSup)
				if err != nil {
					t.Logf("serial %s: %v", m.Name(), err)
					return false
				}
				got, err := m.Mine(db, minSup)
				if err != nil {
					t.Logf("%s workers=%d: %v", m.Name(), workers, err)
					return false
				}
				if !reflect.DeepEqual(got.Levels, want.Levels) {
					t.Logf("%s workers=%d: levels diverge (seed %d minSup %v)\n got %v\nwant %v",
						m.Name(), workers, seed, minSup, got.Levels, want.Levels)
					return false
				}
				if !reflect.DeepEqual(got.Passes, want.Passes) {
					t.Logf("%s workers=%d: pass stats diverge (seed %d)\n got %v\nwant %v",
						m.Name(), workers, seed, got.Passes, want.Passes)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestParallelMinersMatchSerialSynthetic runs the same equivalence check
// once on a Quest-generator workload large enough to exercise multi-level
// passes, leaf splits and all shard boundaries.
func TestParallelMinersMatchSerialSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workload")
	}
	db, err := synth.Baskets(synth.TxI(10, 4, 800, 94))
	if err != nil {
		t.Fatal(err)
	}
	const minSup = 0.01
	for _, workers := range []int{1, 2, 8} {
		for _, m := range parallelVariants(workers) {
			want, err := serialCounterpart(m).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Mine(db, minSup)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) {
				t.Errorf("%s workers=%d: levels diverge from serial", m.Name(), workers)
			}
		}
	}
}

// TestSharedTriangleMatchesShards counts pass 2 through localScans for 1
// to 5 workers — one triangle, each worker counting its band of rows over
// every transaction — and checks it against the sum of per-shard
// transactions.CountPairs triangles, for rank counts on both sides of the
// worker count (n < workers leaves bands empty) and with unranked items.
func TestSharedTriangleMatchesShards(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	db := transactions.NewDB()
	for range 3000 {
		items := make([]int, 1+rng.Intn(12))
		for j := range items {
			items[j] = rng.Intn(40)
		}
		if err := db.Add(items...); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 7, 30} {
		rank := make([]int, db.NumItems())
		for i := range rank {
			rank[i] = -1
		}
		for r, item := range rng.Perm(db.NumItems())[:n] {
			rank[item] = r
		}
		// Ranks must ascend with item id.
		for r, item := 0, 0; item < len(rank); item++ {
			if rank[item] >= 0 {
				rank[item], r = r, r+1
			}
		}
		for workers := 1; workers <= 5; workers++ {
			want := make([]int32, n*(n-1)/2)
			base := transactions.TriBases(n)
			for _, sh := range db.Shards(workers) {
				part := make([]int32, len(want))
				for _, tx := range sh.Transactions {
					transactions.CountPairs(tx, rank, base, 0, n, part, nil)
				}
				for i, c := range part {
					want[i] += c
				}
			}
			got, err := scanLocal(db, db.NumItems(), workers).countPairs(ctx, rank, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n %d, workers %d: shared triangle\n%v\nwant the shards' sum\n%v", n, workers, got, want)
			}
		}
	}
}

// TestPairBands: the bands tile the triangle's rows in order, and no band
// holds more than its share of counters by more than one row's worth.
func TestPairBands(t *testing.T) {
	for n := range 40 {
		for workers := 1; workers <= 6; workers++ {
			b := pairBands(n, workers)
			if len(b) != workers+1 || b[0] != 0 || b[workers] != n {
				t.Fatalf("n %d, workers %d: bands %v do not run from 0 to n", n, workers, b)
			}
			total := n * (n - 1) / 2
			for w := range workers {
				area := 0
				for i := b[w]; i < b[w+1]; i++ {
					area += n - 1 - i
				}
				if b[w] > b[w+1] || (area-max(n-1, 0))*workers > total {
					t.Fatalf("n %d, workers %d: band %d of %v holds %d of %d counters", n, workers, w, b, area, total)
				}
			}
		}
	}
}

// TestForEachIndex pins the shared cursor of the per-index loops: every
// index runs exactly once at any worker cap, including n = 0 and more
// workers than indices, w stays below min(workers, n), and a cancel
// mid-run stops the cursor within one call per worker and surfaces
// ctx.Err().
func TestForEachIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 5, 300} {
			runs := make([]atomic.Int32, n)
			if err := forEachIndex(context.Background(), n, workers, func(w, i int) {
				if w >= min(workers, n) {
					t.Errorf("workers %d, n %d: index %d ran on worker %d", workers, n, i, w)
				}
				runs[i].Add(1)
			}); err != nil {
				t.Fatalf("workers %d, n %d: %v", workers, n, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int32
		var cancelled atomic.Bool
		err := forEachIndex(ctx, 1000, workers, func(_, _ int) {
			if cancelled.Load() {
				late.Add(1)
			}
			if calls.Add(1) == 10 {
				cancel()
				cancelled.Store(true)
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		// Each other worker may run the one index it pulled before the
		// cancel; nothing is pulled after it.
		if got := int(late.Load()); got > workers-1 {
			t.Errorf("workers %d: %d calls began after the cancel", workers, got)
		}
	}
}

// TestLocalLayoutMatchesOracle counts passes k >= 3 through localScans,
// whose first count lays every shard out, for 1 to 3 workers over shards
// of more than 4,096 rows: C3, then C4 from the same layouts, then a list
// the layouts do not cover (an item outside them, and a pair shorter than
// their row filter). Every count must equal the oracle's.
func TestLocalLayoutMatchesOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	db := transactions.NewDB()
	for range 13000 {
		items := make([]int, 2+rng.Intn(10))
		for j := range items {
			items[j] = rng.Intn(30)
		}
		if err := db.Add(items...); err != nil {
			t.Fatal(err)
		}
	}
	var c3, c4 []transactions.Itemset
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			for c := b + 1; c < 12; c++ {
				c3 = append(c3, transactions.Itemset{a, b, c})
				for d := c + 1; d < 12; d += 3 {
					c4 = append(c4, transactions.Itemset{a, b, c, d})
				}
			}
		}
	}
	uncovered := []transactions.Itemset{{0, 1, 20}, {3, 5}, {2, 4, 6}, {7, 8, 100}}
	for workers := 1; workers <= 3; workers++ {
		src := scanLocal(db, db.NumItems(), workers)
		for _, cands := range [][]transactions.Itemset{c3, c4, uncovered, c4} {
			got, err := src.countCandidates(ctx, len(cands[0]), cands)
			if err != nil {
				t.Fatal(err)
			}
			for i, set := range cands {
				if want := oracle.Support(db.Transactions, set); int(got[i]) != want {
					t.Fatalf("workers %d: %v counted %d, oracle %d", workers, set, got[i], want)
				}
			}
		}
	}
}
