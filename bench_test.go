package repro

// Ablation benches for design decisions no other harness measures: Eclat's
// two vertical layouts and their intersect kernels, hash-tree vs map
// candidate counting, k-means seeding, k-d tree leaf size and the BIRCH
// leaf budget. The paper-shaped tables are cmd/dmbench's; performance of
// the engine stack is measured by bench/ (bench/README.md).

import (
	"sync"
	"testing"

	"repro/internal/assoc"
	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// --- shared fixtures, built once ---

var (
	basketOnce sync.Once
	basketDB   *transactions.DB

	pointsOnce sync.Once
	points     [][]float64

	gridOnce sync.Once
	gridPts  [][]float64
)

func baskets(b *testing.B) *transactions.DB {
	b.Helper()
	basketOnce.Do(func() {
		db, err := synth.Baskets(synth.TxI(10, 4, 4000, 94))
		if err != nil {
			panic(err)
		}
		basketDB = db
	})
	return basketDB
}

func gaussPoints(b *testing.B) [][]float64 {
	b.Helper()
	pointsOnce.Do(func() {
		p, err := synth.GaussianMixture(synth.GaussianConfig{
			NumPoints: 800, NumCluster: 5, Dims: 2, Spread: 1, Separation: 80, Seed: 41,
		})
		if err != nil {
			panic(err)
		}
		points = p.X
	})
	return points
}

func grid(b *testing.B) [][]float64 {
	b.Helper()
	gridOnce.Do(func() {
		p, err := synth.GaussianGrid(synth.GridConfig{
			NumPoints: 20000, GridSide: 2, CentreDist: 40, Spread: 2, Seed: 98,
		})
		if err != nil {
			panic(err)
		}
		gridPts = p.X
	})
	return gridPts
}

func benchMiner(b *testing.B, m assoc.Miner) {
	db := baskets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(db, 0.0075); err != nil {
			b.Fatal(err)
		}
	}
}

// Eclat vertical-layout ablation: sorted tid-list merging vs bitset
// word-AND + popcount, on the sparse benchmark fixture and on a dense
// small-universe one where bitsets shine.
func denseBaskets(b *testing.B) *transactions.DB {
	b.Helper()
	denseOnce.Do(func() {
		c := synth.TxI(10, 4, 4000, 94)
		c.NumItems = 100
		c.NumPatterns = 200
		db, err := synth.Baskets(c)
		if err != nil {
			panic(err)
		}
		denseDB = db
	})
	return denseDB
}

var (
	denseOnce sync.Once
	denseDB   *transactions.DB
)

func benchEclat(b *testing.B, db *transactions.DB, layout assoc.TidLayout) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&assoc.Eclat{Layout: layout}).Mine(db, 0.0075); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEclatTIDListSparse(b *testing.B) { benchEclat(b, baskets(b), assoc.LayoutTIDList) }
func BenchmarkEclatBitsetSparse(b *testing.B)  { benchEclat(b, baskets(b), assoc.LayoutBitset) }
func BenchmarkEclatTIDListDense(b *testing.B)  { benchEclat(b, denseBaskets(b), assoc.LayoutTIDList) }
func BenchmarkEclatBitsetDense(b *testing.B)   { benchEclat(b, denseBaskets(b), assoc.LayoutBitset) }

// Micro-ablation: one intersection of two dense tid-sets in each layout.
func intersectFixture() (a, bb []int, ba, bbBits *transactions.Bitset) {
	const n = 100000
	a = make([]int, 0, n/8)
	bb = make([]int, 0, n/8)
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			a = append(a, i)
		}
		if i%8 == 2 || i%16 == 0 {
			bb = append(bb, i)
		}
	}
	return a, bb, transactions.BitsetFromTIDs(a, n), transactions.BitsetFromTIDs(bb, n)
}

func BenchmarkIntersectTIDList(b *testing.B) {
	a, bb, _, _ := intersectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transactions.IntersectSorted(a, bb)
	}
}

func BenchmarkIntersectBitset(b *testing.B) {
	_, _, ba, bbBits := intersectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transactions.AndBitset(ba, bbBits)
	}
}

// Hash tree vs map-based candidate counting inside Apriori.
func BenchmarkAblationCountHashTree(b *testing.B) {
	benchMiner(b, &assoc.Apriori{Strategy: assoc.CountHashTree})
}

func BenchmarkAblationCountMap(b *testing.B) {
	benchMiner(b, &assoc.Apriori{Strategy: assoc.CountMap})
}

// k-means seeding strategies.
func BenchmarkAblationSeedForgy(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 5, Seed: 1, Seeding: cluster.SeedForgy}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSeedRandomPartition(b *testing.B) {
	pts := gaussPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.KMeans{K: 5, Seed: 1, Seeding: cluster.SeedRandomPartition}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// k-d tree leaf sizes.
func BenchmarkAblationKDLeaf1(b *testing.B)  { benchKDLeaf(b, 1) }
func BenchmarkAblationKDLeaf16(b *testing.B) { benchKDLeaf(b, 16) }
func BenchmarkAblationKDLeaf64(b *testing.B) { benchKDLeaf(b, 64) }

func benchKDLeaf(b *testing.B, leaf int) {
	p, err := synth.GaussianMixture(synth.GaussianConfig{
		NumPoints: 10500, NumCluster: 8, Dims: 2, Spread: 3, Separation: 100, Seed: 55,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts, qs := p.X[:10000], p.X[10000:]
	tr, err := knn.NewKDTreeLeaf(pts, leaf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.KNearest(qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BIRCH threshold/branching trade-off.
func BenchmarkAblationBIRCHTightLeaves(b *testing.B) { benchBIRCH(b, 64) }
func BenchmarkAblationBIRCHLooseLeaves(b *testing.B) { benchBIRCH(b, 1024) }

func benchBIRCH(b *testing.B, maxLeaves int) {
	pts := grid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&cluster.BIRCH{K: 4, MaxLeaves: maxLeaves, Seed: 1}).Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}
