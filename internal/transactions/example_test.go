package transactions_test

import (
	"fmt"

	"repro/internal/transactions"
)

// ExampleDB builds a small horizontal database and shows the invariants
// the miners rely on: transactions normalise to sorted sets, and Shards
// hands out contiguous zero-copy views with global tid bases for the
// count-distribution engine.
func ExampleDB() {
	db := transactions.NewDB()
	if err := db.Add(3, 1, 2, 3); err != nil { // duplicates and order normalise away
		panic(err)
	}
	if err := db.Add(2, 4); err != nil {
		panic(err)
	}
	fmt.Println("transactions:", db.Len(), "item universe:", db.NumItems())
	fmt.Println("first:", db.Transactions[0])
	for _, sh := range db.Shards(2) {
		fmt.Println("shard base", sh.Base, "size", len(sh.Transactions))
	}
	// Output:
	// transactions: 2 item universe: 5
	// first: {1, 2, 3}
	// shard base 0 size 1
	// shard base 1 size 1
}

// ExampleShardedDB shows the updatable store behind the incremental
// mining backend: appends fill the tail shard, deletes stay within the
// owning shard, and every mutation bumps exactly one shard version — the
// signal caches use to re-count only dirty shards.
func ExampleShardedDB() {
	store := transactions.NewShardedDB(64) // capacity rounds to a word multiple
	for i := 0; i < 70; i++ {
		if err := store.Append(1, 2); err != nil {
			panic(err)
		}
	}
	fmt.Println("transactions:", store.Len(), "shards:", store.NumShards())
	fmt.Println("versions:", store.Version(0), store.Version(1))

	if _, err := store.DeleteAt(0); err != nil { // dirties only shard 0
		panic(err)
	}
	fmt.Println("after delete:", store.Len(), "versions:", store.Version(0), store.Version(1))
	fmt.Println("snapshot:", store.Snapshot().Len())
	// Output:
	// transactions: 70 shards: 2
	// versions: 64 6
	// after delete: 69 versions: 65 6
	// snapshot: 69
}
