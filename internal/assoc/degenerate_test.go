package assoc

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/dist"
	"repro/internal/fptree"
	"repro/internal/transactions"
)

// degenerateEngines returns the engine lineup the uniform-degenerate
// contract covers (the ISSUE-4 five plus everything else registered, since
// the contract is package-wide). The cleanup func closes the distributed
// transport.
func degenerateEngines() ([]Miner, func()) {
	d := &Distributed{}
	miners := append(allMiners(), d)
	return miners, func() { d.Close() }
}

// TestDegenerateInputsUniformAcrossEngines is the cross-engine table test:
// an empty database, minSupport <= 0 and minSupport > 1 must yield, from
// every engine, the matching sentinel error AND the canonical empty Result
// — non-nil, zero frequent itemsets, empty Canonical bytes — never a nil
// result and never a panic.
func TestDegenerateInputsUniformAcrossEngines(t *testing.T) {
	db := paperDB(t)
	cases := []struct {
		name    string
		db      *transactions.DB
		minSup  float64
		wantErr error
	}{
		{"empty db", transactions.NewDB(), 0.5, ErrEmptyDB},
		{"nil db", nil, 0.5, ErrEmptyDB},
		{"zero support", db, 0, ErrBadSupport},
		{"negative support", db, -0.25, ErrBadSupport},
		{"support above one", db, 1.5, ErrBadSupport},
	}
	engines, cleanup := degenerateEngines()
	defer cleanup()
	for _, m := range engines {
		for _, tc := range cases {
			res, err := m.Mine(tc.db, tc.minSup)
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s / %s: err = %v, want %v", m.Name(), tc.name, err, tc.wantErr)
			}
			if res == nil {
				t.Errorf("%s / %s: nil Result; want the canonical empty one", m.Name(), tc.name)
				continue
			}
			if res.NumFrequent() != 0 || res.MaxLevel() != 0 || len(res.Passes) != 0 {
				t.Errorf("%s / %s: non-empty degenerate Result: %+v", m.Name(), tc.name, res)
			}
			if len(res.Canonical()) != 0 {
				t.Errorf("%s / %s: Canonical = %q, want empty", m.Name(), tc.name, res.Canonical())
			}
			if res.MinCount != 0 || res.NumTx != 0 {
				t.Errorf("%s / %s: degenerate Result carries counts: %+v", m.Name(), tc.name, res)
			}
			// The empty result must be safe to use, not just to look at.
			if _, ok := res.Support(transactions.NewItemset(1)); ok {
				t.Errorf("%s / %s: empty Result claims support", m.Name(), tc.name)
			}
			if all := res.All(); len(all) != 0 {
				t.Errorf("%s / %s: All() = %v", m.Name(), tc.name, all)
			}
		}
	}
}

// TestDegenerateRuleGeneration covers the same contract one layer up: rule
// generation over the canonical empty Result must error without panicking.
func TestDegenerateRuleGeneration(t *testing.T) {
	if _, err := GenerateRules(emptyResult(), 0.5); !errors.Is(err, ErrEmptyDB) {
		t.Errorf("rules over empty result: err = %v, want ErrEmptyDB", err)
	}
}

// TestDegenerateForests runs pattern growth over forests that are not k
// well-filled shard trees: fewer transactions than workers (the tail shards
// are never built), a shard whose every item is infrequent (an empty tree
// inside a non-empty forest), no frequent item at all (no forest is built),
// and a database of one transaction repeated (every path is its
// predecessor's). Locally and over dist, at workers 1, 2 and 8, the result
// must equal Apriori's byte for byte.
func TestDegenerateForests(t *testing.T) {
	build := func(rows ...[]int) *transactions.DB {
		db := transactions.NewDB()
		for _, row := range rows {
			if err := db.Add(row...); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	repeated := make([][]int, 12)
	for i := range repeated {
		repeated[i] = []int{2, 5, 7}
	}
	cases := []struct {
		name   string
		db     *transactions.DB
		minSup float64
	}{
		{"fewer transactions than workers", build([]int{1, 2}, []int{1, 2, 3}, []int{2, 3}), 0.5},
		{"one transaction", build([]int{4, 6}), 1},
		// At workers 2 the first shard is the four rare singletons.
		{"shard of infrequent items only", build(
			[]int{10}, []int{11}, []int{12}, []int{13},
			[]int{1, 2}, []int{1, 2}, []int{1, 2, 3}, []int{1, 3}), 0.25},
		{"no frequent item", build([]int{1}, []int{2}, []int{3}, []int{4}), 0.5},
		{"duplicate transactions", build(repeated...), 0.5},
	}
	for _, tc := range cases {
		want, err := (&Apriori{}).Mine(tc.db, tc.minSup)
		if err != nil {
			t.Fatalf("%s: Apriori: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			d := newDistributed(DistEngineFPGrowth, workers)
			for _, m := range []Miner{&FPGrowth{Workers: workers}, d} {
				got, err := m.Mine(tc.db, tc.minSup)
				if err != nil {
					t.Errorf("%s: %s workers=%d: %v", tc.name, m.Name(), workers, err)
					continue
				}
				if !bytes.Equal(got.Canonical(), want.Canonical()) {
					t.Errorf("%s: %s workers=%d diverges from Apriori\n got %s\nwant %s",
						tc.name, m.Name(), workers, got.Canonical(), want.Canonical())
				}
			}
			d.Close()
		}
	}
}

// TestCoordinatorWithoutShardsBuildsEmptyForest covers the scatter that
// returns no tree at all: a coordinator holding no shards answers BuildTree
// with the empty forest, and growing patterns over it finds no support
// anywhere.
func TestCoordinatorWithoutShardsBuildsEmptyForest(t *testing.T) {
	tr := dist.NewLocalTransport(2, true)
	defer tr.Close()
	ranks := fptree.NewRanks([]int{3, 0, 5}, 2)
	forest, err := dist.NewCoordinator(tr).BuildTree(context.Background(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Trees()) != 0 {
		t.Fatalf("forest holds %d trees, want none", len(forest.Trees()))
	}
	perRank, err := minePerRank(context.Background(), forest, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rk, bucket := range perRank {
		if len(bucket) != 1 || bucket[0].Count != 0 {
			t.Errorf("rank %d: bucket %v, want the bare item at support 0", rk, bucket)
		}
	}
}
