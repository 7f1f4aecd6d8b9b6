package assoc_test

import (
	"fmt"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// ExampleApriori mines a toy basket database and prints every frequent
// itemset with its absolute support.
func ExampleApriori() {
	db := transactions.NewDB()
	for _, basket := range [][]int{{1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3}} {
		if err := db.Add(basket...); err != nil {
			panic(err)
		}
	}
	res, err := (&assoc.Apriori{}).Mine(db, 0.5)
	if err != nil {
		panic(err)
	}
	for _, ic := range res.All() {
		fmt.Println(ic.Items, ic.Count)
	}
	// Output:
	// {1} 3
	// {2} 4
	// {3} 3
	// {1, 2} 3
	// {1, 3} 2
	// {2, 3} 3
	// {1, 2, 3} 2
}

// ExampleIncremental shows the mine → maintain lifecycle: an initial full
// mine over a sharded store counts the tracked candidate set, and a later
// update is folded in by counting only the transactions it added or
// deleted — with a result byte-identical to re-mining from scratch.
func ExampleIncremental() {
	store := transactions.NewShardedDB(64)
	for _, basket := range [][]int{{1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3}, {2}, {1, 2}} {
		if err := store.Append(basket...); err != nil {
			panic(err)
		}
	}
	inc := &assoc.Incremental{}
	res, _, err := inc.Attach(store, 0.5)
	if err != nil {
		panic(err)
	}
	fmt.Println("mined:", res.NumFrequent(), "frequent itemsets")

	// The store takes appends and deletes; Maintain brings the result up
	// to date, counting only the transactions the update journalled.
	if err := store.Append(1, 2); err != nil {
		panic(err)
	}
	res, stats, err := inc.Maintain()
	if err != nil {
		panic(err)
	}
	fmt.Println("maintained:", res.NumFrequent(), "frequent itemsets, full re-mine:", stats.FullRun)
	if sup, ok := res.Support(transactions.NewItemset(1, 2)); ok {
		fmt.Println("{1, 2} support", sup)
	}
	// Output:
	// mined: 5 frequent itemsets
	// maintained: 3 frequent itemsets, full re-mine: false
	// {1, 2} support 5
}
