package assoc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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
