package knn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func randomPoints(rng *rand.Rand, n, dims int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dims)
		for d := range pts[i] {
			pts[i][d] = rng.Float64() * 100
		}
	}
	return pts
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{1, 2, 3, 5} {
		pts := randomPoints(rng, 300, dims)
		tree, err := NewKDTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, dims)
			for d := range q {
				q[d] = rng.Float64() * 100
			}
			for _, k := range []int{1, 5, 17} {
				got, err := tree.KNearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BruteKNearest(pts, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("dims %d k %d: lengths %d vs %d", dims, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Dist2 != want[i].Dist2 {
						t.Fatalf("dims %d k %d pos %d: dist %v vs %v",
							dims, k, i, got[i].Dist2, want[i].Dist2)
					}
				}
			}
		}
	}
}

func TestKDTreeSmallLeafSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 100, 2)
	for _, leaf := range []int{1, 2, 4, 64} {
		tree, err := NewKDTreeLeaf(pts, leaf)
		if err != nil {
			t.Fatal(err)
		}
		q := []float64{50, 50}
		got, err := tree.KNearest(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := BruteKNearest(pts, q, 3)
		for i := range got {
			if got[i].Dist2 != want[i].Dist2 {
				t.Fatalf("leaf %d: mismatch at %d", leaf, i)
			}
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}, {3, 3}}
	tree, err := NewKDTreeLeaf(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.KNearest([]float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range got {
		if nb.Dist2 != 0 {
			t.Errorf("expected all three zero-distance duplicates, got %v", got)
		}
	}
}

func TestKDTreeErrors(t *testing.T) {
	if _, err := NewKDTree(nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := NewKDTree([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrDims) {
		t.Errorf("ragged error = %v", err)
	}
	tree, err := NewKDTree([][]float64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.KNearest([]float64{1}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := tree.KNearest([]float64{1}, 3); !errors.Is(err, ErrBadK) {
		t.Errorf("k>n error = %v", err)
	}
	if _, err := tree.KNearest([]float64{1, 2}, 1); !errors.Is(err, ErrDims) {
		t.Errorf("dims error = %v", err)
	}
	if _, err := BruteKNearest(nil, []float64{1}, 1); !errors.Is(err, ErrNoPoints) {
		t.Errorf("brute empty error = %v", err)
	}
}

// Property: the k-d tree and brute force agree on nearest-neighbour
// distance for random configurations.
func TestKDTreeProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		dims := 1 + rng.Intn(4)
		pts := randomPoints(rng, n, dims)
		k := 1 + int(kRaw)%10
		if k > n {
			k = n
		}
		tree, err := NewKDTreeLeaf(pts, 1+rng.Intn(8))
		if err != nil {
			return false
		}
		q := make([]float64, dims)
		for d := range q {
			q[d] = rng.Float64() * 100
		}
		got, err := tree.KNearest(q, k)
		if err != nil {
			return false
		}
		want, err := BruteKNearest(pts, q, k)
		if err != nil {
			return false
		}
		for i := range got {
			if got[i].Dist2 != want[i].Dist2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func classifierTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 600, Function: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestClassifierTreeAndBruteAgree(t *testing.T) {
	tbl := classifierTable(t)
	brute, err := Train(tbl, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Train(tbl, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 200, Function: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range test.Rows {
		if brute.Predict(row) != tree.Predict(row) {
			t.Fatalf("row %d: brute %d != tree %d", i, brute.Predict(row), tree.Predict(row))
		}
	}
}

func TestClassifierAccuracy(t *testing.T) {
	tbl := classifierTable(t)
	c, err := Train(tbl, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 500, Function: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range test.Rows {
		if c.Predict(row) == test.Class(i) {
			correct++
		}
	}
	acc := float64(correct) / float64(test.NumRows())
	if acc < 0.7 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestClassifierValidation(t *testing.T) {
	tbl := classifierTable(t)
	if _, err := Train(nil, 3, false); !errors.Is(err, ErrNoPoints) {
		t.Errorf("nil error = %v", err)
	}
	if _, err := Train(tbl, 0, false); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(noClass, 1, false); !errors.Is(err, ErrNoClassAttr) {
		t.Errorf("no-class error = %v", err)
	}
}

func TestClassifierMissingValues(t *testing.T) {
	tbl := classifierTable(t)
	tbl.Rows[0][0] = dataset.Missing
	c, err := Train(tbl, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	row := append([]float64(nil), tbl.Rows[1]...)
	row[2] = dataset.Missing
	if got := c.Predict(row); got != 0 && got != 1 {
		t.Errorf("prediction with missing = %d", got)
	}
}

func TestCategoricalMismatchCost(t *testing.T) {
	// Two categorical values must contribute exactly 1.0 to the squared
	// distance regardless of index separation.
	tbl := dataset.New(
		dataset.NewCategoricalAttribute("c", "a", "b", "z"),
		dataset.NewCategoricalAttribute("class", "x", "y"),
	)
	tbl.ClassIndex = 1
	if err := tbl.AppendRow([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow([]float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	c, err := Train(tbl, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	va := c.enc.Encode([]float64{0, 0})
	vz := c.enc.Encode([]float64{2, 0})
	if d := dist2(va, vz); d < 0.999 || d > 1.001 {
		t.Errorf("categorical mismatch distance² = %v, want 1", d)
	}
	vsame := c.enc.Encode([]float64{0, 1})
	if d := dist2(va, vsame); d != 0 {
		t.Errorf("identical categorical distance² = %v, want 0", d)
	}
}
