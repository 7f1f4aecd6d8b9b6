package mining_test

import (
	"context"
	"fmt"
	"log"

	"repro/mining"
)

// ExampleMine mines a tiny basket database with the default engine and
// reads one itemset's support back.
func ExampleMine() {
	db, err := mining.NewDB([][]int{
		{0, 1, 2},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := mining.Mine(context.Background(), db,
		mining.MinSupport(0.4),
		mining.Workers(0), // 0 = GOMAXPROCS; the result is identical at any worker count
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d frequent itemsets\n", res.NumFrequent())
	sup, _ := res.Support(0, 1)
	fmt.Printf("support({0,1}) = %d\n", sup)
	// Output:
	// 7 frequent itemsets
	// support({0,1}) = 3
}

// ExampleMineStream consumes results level by level — short itemsets are
// available while longer ones are still being counted.
func ExampleMineStream() {
	db, err := mining.NewDB([][]int{
		{0, 1, 2},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for level, err := range mining.MineStream(context.Background(), db,
		mining.MinSupport(0.4), mining.Algorithm("Apriori")) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("level %d: %d itemsets\n", level.K, len(level.Itemsets))
	}
	// Output:
	// level 1: 3 itemsets
	// level 2: 3 itemsets
	// level 3: 1 itemsets
}

// ExampleSession shows the stateful handle: mine, append, maintain. The
// maintained result is byte-identical to re-mining from scratch, but
// after an update only the appended and deleted transactions are counted.
func ExampleSession() {
	db, err := mining.NewDB([][]int{
		{0, 1, 2},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	s, err := mining.NewSession(db, mining.MinSupport(0.4))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	res, err := s.Mine(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: %d frequent itemsets\n", res.NumFrequent())

	if err := s.Append(0, 1); err != nil {
		log.Fatal(err)
	}
	res, err = s.Mine(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after append: %d frequent itemsets\n", res.NumFrequent())
	// Output:
	// initial: 7 frequent itemsets
	// after append: 6 frequent itemsets
}
