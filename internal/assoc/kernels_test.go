package assoc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// kernelDB draws a random database over a small universe with a few
// planted co-occurring items, so that pairs, triples and rules of every
// confidence occur.
func kernelDB(seed int64, items int) *transactions.DB {
	rng := rand.New(rand.NewSource(seed))
	db := transactions.NewDB()
	for i, n := 0, 40+rng.Intn(80); i < n; i++ {
		row := make([]int, 0, 8)
		if rng.Intn(3) == 0 {
			row = append(row, 0, 1, 2)
		}
		for j, m := 0, 1+rng.Intn(6); j < m; j++ {
			row = append(row, rng.Intn(items))
		}
		if err := db.Add(row...); err != nil {
			panic(err)
		}
	}
	return db
}

// TestThresholdTriangleMatchesBruteForce checks the row-wise triangle
// scan against the oracle's frequent pairs in both of its callers' shapes:
// countL2's, where the ranked items are exactly L1, and the maintainer's,
// where the ranks were frozen at a lower support before the database
// changed, so ranked items ⊇ L1 and some ranked items are no longer
// frequent. A third shape hands it an arbitrary subset of the ranked
// items, so rows and columns of frequent pairs are skipped too.
func TestThresholdTriangleMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		items := 6 + int(seed)%20
		before, after := kernelDB(seed, items), kernelDB(seed+1000, items)
		minCount := 2 + int(seed)%5
		ranked := thresholdItems(countItems(before, items), minCount-1-int(seed)%2)
		rank := l1Ranks(ranked, items)
		pairs := make([]int32, len(ranked)*(len(ranked)-1)/2)
		for _, tx := range after.Transactions {
			transactions.CountPairs(tx, rank, transactions.TriBases(len(ranked)), 0, len(ranked), pairs, nil)
		}
		l1 := thresholdItems(countItems(after, items), minCount)
		// minCount/n·n is within an ulp of minCount, so the oracle's
		// rounding gives minCount back.
		freq := oracle.Frequent(after.Transactions, float64(minCount)/float64(len(after.Transactions)))
		var stillFrequent, subset []ItemsetCount
		for _, ic := range l1 {
			if rank[ic.Items[0]] >= 0 {
				stillFrequent = append(stillFrequent, ic)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, ic := range ranked {
			if rng.Intn(2) == 0 {
				subset = append(subset, ic)
			}
		}

		// countL2's shape: rank exactly the current L1.
		l1Rank := l1Ranks(l1, items)
		l1Pairs := make([]int32, len(l1)*(len(l1)-1)/2)
		for _, tx := range after.Transactions {
			transactions.CountPairs(tx, l1Rank, transactions.TriBases(len(l1)), 0, len(l1), l1Pairs, nil)
		}
		shapes := []struct {
			name   string
			l1     []ItemsetCount
			rank   []int
			n      int
			counts []int32
		}{
			{"countL2", l1, l1Rank, len(l1), l1Pairs},
			{"maintainer", stillFrequent, rank, len(ranked), pairs},
			{"subset", subset, rank, len(ranked), pairs},
		}
		for _, sh := range shapes {
			var want []ItemsetCount
			for _, s := range freq.Sets {
				if len(s.Items) == 2 && inL1(sh.l1, s.Items[0]) && inL1(sh.l1, s.Items[1]) {
					want = append(want, ItemsetCount{Items: s.Items, Count: s.Count})
				}
			}
			if got := thresholdTriangle(sh.l1, sh.rank, sh.n, sh.counts, minCount, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s shape (%d of %d ranks live, minCount %d):\n got %v\nwant %v",
					seed, sh.name, len(sh.l1), sh.n, minCount, got, want)
			}
			// The maintainer's walk: only the slots marked at a floor at or
			// below minCount are read, and the pairs must come out the same.
			marked := &Incremental{triTotals: sh.counts}
			marked.markPassing(minCount - rng.Intn(minCount))
			if got := thresholdTriangle(sh.l1, sh.rank, sh.n, sh.counts, minCount, marked.passing); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s shape, slots marked at %d: walk\n got %v\nwant %v", seed, sh.name, marked.floor, got, want)
			}
		}
	}
}

// countItems is a pass-1 count over a universe of the given size.
func countItems(db *transactions.DB, items int) []int32 {
	counts := make([]int32, items)
	for _, tx := range db.Transactions {
		transactions.CountItems(tx, counts)
	}
	return counts
}

// inL1 reports whether item is one of l1's 1-itemsets.
func inL1(l1 []ItemsetCount, item int) bool {
	return slices.ContainsFunc(l1, func(ic ItemsetCount) bool { return ic.Items[0] == item })
}

// TestGenerateRulesMatchesEnumeration checks GenerateRules against the
// oracle's enumeration of every antecedent/consequent split on random
// databases: the same rules, bit-identical measures, the same String() and
// the same order.
func TestGenerateRulesMatchesEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		db := kernelDB(seed, 8+int(seed)%12)
		for _, minSup := range []float64{0.03, 0.08} {
			res, err := (&Apriori{}).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			freq := oracle.Frequent(db.Transactions, minSup)
			for _, minConf := range []float64{0.1, 0.5, 0.9, 1} {
				got, err := GenerateRules(res, minConf, newRule)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleRules(freq, minConf)
				label := fmt.Sprintf("seed %d, minsup %v, minconf %v", seed, minSup, minConf)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rules, enumeration finds %d", label, len(got), len(want))
				}
				for i := range got {
					if got[i].String() != want[i].String() || !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s: rule %d = %v, want %v", label, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// benchKernels is the fixture of the kernel benchmarks: a 20k-row Quest
// T10.I4 database over the serving benchmark's 1,000-item universe, at its
// 0.2 % support.
func benchKernels(b testing.TB) (*transactions.DB, int) {
	b.Helper()
	db, err := synth.Baskets(synth.T10I4(20000, 1996))
	if err != nil {
		b.Fatal(err)
	}
	return db, db.AbsoluteSupport(0.002)
}

// BenchmarkThresholdTriangle times the maintainer's pass-2 threshold: a
// triangle ranked at the tracking support (0.8x) filtered at the real one,
// reading only the slots marked as passing at the tracking support, as the
// maintainer does.
func BenchmarkThresholdTriangle(b *testing.B) {
	db, minCount := benchKernels(b)
	counts := countItems(db, db.NumItems())
	ranked := thresholdItems(counts, db.AbsoluteSupport(0.0016))
	rank := l1Ranks(ranked, db.NumItems())
	pairs := make([]int32, len(ranked)*(len(ranked)-1)/2)
	base := transactions.TriBases(len(ranked))
	var scratch []int
	for _, tx := range db.Transactions {
		scratch = transactions.CountPairs(tx, rank, base, 0, len(ranked), pairs, scratch)
	}
	l1 := thresholdItems(counts, minCount)
	marked := &Incremental{triTotals: pairs}
	marked.markPassing(db.AbsoluteSupport(0.0016))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l2 := thresholdTriangle(l1, rank, len(ranked), pairs, minCount, marked.passing); len(l2) == 0 {
			b.Fatal("no frequent pairs")
		}
	}
}

// BenchmarkGenerateRules times rule generation at the serving tier's
// confidence floor (0.3) over the fixture's frequent set.
func BenchmarkGenerateRules(b *testing.B) {
	db, _ := benchKernels(b)
	res, err := (&Apriori{Workers: 2}).Mine(db, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rules, err := GenerateRules(res, 0.3, newRule); err != nil || len(rules) == 0 {
			b.Fatalf("GenerateRules: %d rules, %v", len(rules), err)
		}
	}
}

// BenchmarkEngines times whole Eclat and FPGrowth mines at workers 1 and
// 2, the engines whose per-index loops (forEachIndex) no bench workload
// runs on its measured path. Two shapes: sparse Quest T10.I4 at 0.2 %, and
// a dense one, the same generator over 120 items and 60 patterns, at 1 %.
func BenchmarkEngines(b *testing.B) {
	sparse := synth.T10I4(20000, 7)
	dense := sparse
	dense.NumItems, dense.NumPatterns = 120, 60
	for _, shape := range []struct {
		name   string
		cfg    synth.BasketConfig
		minSup float64
	}{{"sparse", sparse, 0.002}, {"dense", dense, 0.01}} {
		db, err := synth.Baskets(shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for _, m := range []Miner{&Eclat{Workers: workers}, &FPGrowth{Workers: workers}} {
				b.Run(fmt.Sprintf("%s/%s/w%d", shape.name, m.Name(), workers), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if _, err := m.Mine(db, shape.minSup); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkMaintain times one sliding-window Maintain over a 20k-row Quest
// T10.I4 store at 0.2 % support: 128 fresh rows from the same generator
// appended and the 128 oldest deleted, the delta a serving tier's flush
// hands the maintainer. The mutations are not timed. As the window slides
// the border is crossed now and then, and those maintains are full runs,
// reported per op.
func BenchmarkMaintain(b *testing.B) {
	const rows = 20000
	db, err := synth.Baskets(synth.T10I4(rows+8192, 1996))
	if err != nil {
		b.Fatal(err)
	}
	fresh := db.Transactions[rows:]
	store := transactions.NewShardedDBFrom(&transactions.DB{Transactions: db.Transactions[:rows]}, 1024)
	inc := &Incremental{Workers: 2}
	if _, _, err := inc.AttachContext(context.Background(), store, 0.002); err != nil {
		b.Fatal(err)
	}
	next, fullRuns := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range 128 {
			if err := store.Append(fresh[next%len(fresh)]...); err != nil {
				b.Fatal(err)
			}
			next++
			if _, err := store.DeleteAt(0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		_, stats, err := inc.MaintainContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if stats.FullRun {
			fullRuns++
		}
	}
	b.ReportMetric(float64(fullRuns)/float64(b.N), "fullruns/op")
}

// BenchmarkShardedAppendStable times the snapshot encoding of an 80k-row
// Quest T10.I4 store at shard cap 1024: between calls the window slides
// by 2,048 rows, 2,048 fresh rows appended and the 2,048 oldest deleted
// (a serving tier's snapshot cadence), so a call re-encodes the few shards
// that changed and copies the rest. The mutations are not timed.
func BenchmarkShardedAppendStable(b *testing.B) {
	const rows, slide = 80000, 2048
	db, err := synth.Baskets(synth.T10I4(rows+8*slide, 1996))
	if err != nil {
		b.Fatal(err)
	}
	fresh := db.Transactions[rows:]
	store := transactions.NewShardedDBFrom(&transactions.DB{Transactions: db.Transactions[:rows]}, 1024)
	buf, err := store.AppendStable(nil)
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range slide {
			if err := store.Append(fresh[next%len(fresh)]...); err != nil {
				b.Fatal(err)
			}
			next++
			if _, err := store.DeleteAt(0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if buf, err = store.AppendStable(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "bytes")
}
