package assoc

import (
	"context"
	"testing"
)

func TestCountPairsTriangular(t *testing.T) {
	db := paperDB(t)
	ctx := context.Background()
	src := scanLocal(db, 1)
	counts, err := src.countItems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	l1 := thresholdItems(counts, 2) // items 1, 2, 3, 5
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
