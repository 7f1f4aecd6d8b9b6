package assoc

import (
	"context"
	"testing"

	"repro/internal/transactions"
)

func TestCountPairsTriangular(t *testing.T) {
	db := paperDB(t)
	ctx := context.Background()
	l1, err := frequentOne(ctx, db, 2) // items 1, 2, 3, 5
	if err != nil {
		t.Fatal(err)
	}
	src := scanLocal(db, 1)
	got, err := countL2(ctx, src, l1, db.NumItems(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"1,3": 2, "2,3": 2, "2,5": 3, "3,5": 2}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", got)
	}
	for _, ic := range got {
		if want[ic.Items.Key()] != ic.Count {
			t.Errorf("pair %v count %d, want %d", ic.Items, ic.Count, want[ic.Items.Key()])
		}
	}
	// Fewer than two frequent items: no pairs.
	if got, err := countL2(ctx, src, l1[:1], db.NumItems(), 2); err != nil || got != nil {
		t.Errorf("single-item pairs = %v (err %v)", got, err)
	}
}

func TestGeneratorIndices(t *testing.T) {
	prev := []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 3),
		transactions.NewItemset(2, 3),
	}
	cands := aprioriGen(prev) // {1,2,3}
	if len(cands) != 1 {
		t.Fatalf("cands = %v", cands)
	}
	gens := generatorIndices(cands, prev)
	// Generators of {1,2,3}: {1,2} (index 0) and {1,3} (index 1).
	if gens[0][0] != 0 || gens[0][1] != 1 {
		t.Errorf("generators = %v", gens[0])
	}
}

func TestAdvanceBarCounts(t *testing.T) {
	// Three transactions over candidate ids {0,1,2} standing for the
	// prev-level sets; candidate X has generators (0,1), Y has (1,2).
	bar := []tidEntry{
		{tid: 0, cands: []int{0, 1, 2}}, // supports X and Y
		{tid: 1, cands: []int{0, 1}},    // supports X only
		{tid: 2, cands: []int{2}},       // supports neither
	}
	gens := [][2]int{{0, 1}, {1, 2}}
	counts := make([]int, 2)
	out, err := advanceBar(context.Background(), bar, gens, counts)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v, want [2 1]", counts)
	}
	if len(out) != 2 {
		t.Fatalf("entries = %d, want 2 (empty entries dropped)", len(out))
	}
	if out[0].tid != 0 || len(out[0].cands) != 2 {
		t.Errorf("entry 0 = %+v", out[0])
	}
	if out[1].tid != 1 || len(out[1].cands) != 1 || out[1].cands[0] != 0 {
		t.Errorf("entry 1 = %+v", out[1])
	}
}

func TestFilterBarRenumbers(t *testing.T) {
	bar := []tidEntry{
		{tid: 0, cands: []int{0, 1, 2}},
		{tid: 1, cands: []int{1}},
	}
	keep := []int{-1, 0, 1} // candidate 0 infrequent; 1 -> 0; 2 -> 1
	out := filterBar(bar, keep)
	if len(out) != 2 {
		t.Fatalf("entries = %d", len(out))
	}
	if len(out[0].cands) != 2 || out[0].cands[0] != 0 || out[0].cands[1] != 1 {
		t.Errorf("entry 0 = %v", out[0].cands)
	}
	if len(out[1].cands) != 1 || out[1].cands[0] != 0 {
		t.Errorf("entry 1 = %v", out[1].cands)
	}
}

func TestDHPBucketFilterKeepsResultExact(t *testing.T) {
	// A tiny bucket table forces heavy collisions; results must still be
	// exact because the filter only ever over-approximates.
	db := paperDB(t)
	for _, buckets := range []int{1, 2, 7} {
		res, err := (&DHP{NumBuckets: buckets}).Mine(db, 0.5)
		if err != nil {
			t.Fatalf("buckets=%d: %v", buckets, err)
		}
		got := resultMap(res)
		if len(got) != len(paperExpected) {
			t.Errorf("buckets=%d: %d itemsets, want %d", buckets, len(got), len(paperExpected))
		}
	}
}

func TestDHPPairHashSymmetric(t *testing.T) {
	if pairHash(3, 7, 97) != pairHash(7, 3, 97) {
		t.Error("pairHash must be order-independent")
	}
}

func TestSamplingClampsTinySamples(t *testing.T) {
	// A 10% sample of a tiny DB is a couple of transactions; the clamp
	// must keep the sample mining from declaring everything frequent.
	db := paperDB(t)
	s := &Sampling{SampleFraction: 0.1, LowerFactor: 0.1, Seed: 3}
	res, err := s.Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got := resultMap(res)
	if len(got) != len(paperExpected) {
		t.Errorf("itemsets = %d, want %d", len(got), len(paperExpected))
	}
}

func TestEclatPassStats(t *testing.T) {
	db := paperDB(t)
	res, err := (&Eclat{}).Mine(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes[0].Frequent != 4 {
		t.Errorf("pass 1 = %+v", res.Passes[0])
	}
	if res.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", res.MaxLevel())
	}
}
