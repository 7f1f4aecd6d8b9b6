package transactions_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// TestCountTidsMatchesOracle lays random blocks out with FillTids — sizes
// on both sides of a 64-row word, rows up to 20 items, some items unranked
// — and checks every CountTids delta, added and subtracted, against the
// oracle's support over the block.
func TestCountTidsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const numItems = 40
	rank := make([]int, numItems-5) // items 35..39 lie past the rank table
	ranked := []int{}
	for item := range rank {
		rank[item] = -1
		if rng.Intn(4) > 0 {
			rank[item] = len(ranked)
			ranked = append(ranked, item)
		}
	}
	for _, size := range []int{1, 63, 64, 65, 128, 200} {
		t.Run(fmt.Sprintf("rows%d", size), func(t *testing.T) {
			rows := make([]transactions.Itemset, size)
			for i := range rows {
				rows[i] = transactions.NewItemset(rng.Perm(numItems)[:1+rng.Intn(20)]...)
			}
			var sets []transactions.Itemset
			for range 60 {
				perm := rng.Perm(len(ranked))[:1+rng.Intn(4)]
				set := make([]int, len(perm))
				for i, r := range perm {
					set[i] = ranked[r]
				}
				sets = append(sets, transactions.NewItemset(set...))
			}
			words := (size + 63) / 64
			tids := make([]uint64, len(ranked)*words)
			transactions.FillTids(rows, rank, words, tids)
			counts := make([]int32, len(sets))
			transactions.CountTids(sets, rank, words, tids, +1, counts)
			for i, set := range sets {
				if want := oracle.Support(rows, set); int(counts[i]) != want {
					t.Fatalf("%v: counted %d, oracle %d", set, counts[i], want)
				}
			}
			transactions.CountTids(sets, rank, words, tids, -1, counts)
			for i, set := range sets {
				if counts[i] != 0 {
					t.Fatalf("%v: %d left after subtracting its count", set, counts[i])
				}
			}
		})
	}
}

// BenchmarkCountPairs is one serial pass 2 over 80k Quest T10.I4
// transactions at 0.4 % support (the first rung of the mining ladder):
// every transaction's frequent pairs counted into the L1 triangle.
func BenchmarkCountPairs(b *testing.B) {
	db, err := synth.Baskets(synth.T10I4(80000, 1))
	if err != nil {
		b.Fatal(err)
	}
	items := make([]int32, db.NumItems())
	for _, tx := range db.Transactions {
		transactions.CountItems(tx, items)
	}
	minCount := int32(db.AbsoluteSupport(0.004))
	rank := make([]int, len(items))
	n := 0
	for item, c := range items {
		rank[item] = -1
		if c >= minCount {
			rank[item] = n
			n++
		}
	}
	base := transactions.TriBases(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := make([]int32, n*(n-1)/2)
		var scratch []int
		for _, tx := range db.Transactions {
			scratch = transactions.CountPairs(tx, rank, base, pairs, scratch)
		}
	}
}
