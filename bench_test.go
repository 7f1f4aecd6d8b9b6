package repro

// Ablation benches for design decisions no other harness measures: Eclat's
// bitset intersect kernel, k-means seeding, k-d tree leaf size and the
// BIRCH leaf budget. The paper-shaped tables are cmd/dmbench's; performance of
// the engine stack is measured by bench/ (bench/README.md).

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// --- shared fixtures, built once ---

var (
	pointsOnce sync.Once
	points     [][]float64

	gridOnce sync.Once
	gridPts  [][]float64
)

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

// One intersection of two dense bitset tid-sets — the kernel Eclat joins with.
func BenchmarkIntersectBitset(b *testing.B) {
	const n = 100000
	var x, y []int
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			x = append(x, i)
		}
		if i%8 == 2 || i%16 == 0 {
			y = append(y, i)
		}
	}
	bx, by := transactions.BitsetFromTIDs(x, n), transactions.BitsetFromTIDs(y, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transactions.AndBitset(bx, by)
	}
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
