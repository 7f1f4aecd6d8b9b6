package transactions_test

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/transactions"
)

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
