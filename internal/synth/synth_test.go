package synth

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
)

func TestBasketsBasicShape(t *testing.T) {
	c := TxI(10, 4, 500, 1)
	db, err := Baskets(c)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 500 {
		t.Fatalf("Len = %d", db.Len())
	}
	total := 0
	for _, tx := range db.Transactions {
		if len(tx) == 0 {
			t.Fatal("empty transaction generated")
		}
		total += len(tx)
	}
	avg := float64(total) / float64(db.Len())
	if avg < 5 || avg > 15 {
		t.Errorf("average transaction size = %v, want ~10", avg)
	}
	if db.NumItems() > c.NumItems {
		t.Errorf("NumItems = %d exceeds universe %d", db.NumItems(), c.NumItems)
	}
}

func TestBasketsDeterministic(t *testing.T) {
	a, err := Baskets(TxI(5, 2, 100, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Baskets(TxI(5, 2, 100, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Transactions {
		if !a.Transactions[i].Equal(b.Transactions[i]) {
			t.Fatalf("tx %d differs between same-seed runs", i)
		}
	}
}

func TestBasketsSeedChangesOutput(t *testing.T) {
	a, _ := Baskets(TxI(5, 2, 100, 1))
	b, _ := Baskets(TxI(5, 2, 100, 2))
	same := true
	for i := range a.Transactions {
		if !a.Transactions[i].Equal(b.Transactions[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical databases")
	}
}

func TestBasketsHasFrequentPatterns(t *testing.T) {
	// With patterns driving generation, some pair must be frequent well
	// above the independence baseline.
	db, err := Baskets(BasketConfig{
		NumTransactions: 1000, AvgTxSize: 10, AvgPatternSize: 4,
		NumPatterns: 50, NumItems: 200,
		CorruptionMean: 0.3, CorruptionSD: 0.1, CorrelationMean: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[[2]int]int)
	for _, tx := range db.Transactions {
		for i := 0; i < len(tx); i++ {
			for j := i + 1; j < len(tx); j++ {
				counts[[2]int{tx[i], tx[j]}]++
			}
		}
	}
	best := 0
	for _, n := range counts {
		if n > best {
			best = n
		}
	}
	// Independence baseline for a pair: ~(10/200)^2 * 1000 = 2.5.
	if best < 25 {
		t.Errorf("max pair support = %d, want correlated structure (>= 25)", best)
	}
}

func TestBasketsValidation(t *testing.T) {
	bad := []BasketConfig{
		{NumTransactions: 0, AvgTxSize: 1, AvgPatternSize: 1, NumPatterns: 1, NumItems: 10},
		{NumTransactions: 1, AvgTxSize: 0, AvgPatternSize: 1, NumPatterns: 1, NumItems: 10},
		{NumTransactions: 1, AvgTxSize: 1, AvgPatternSize: 0, NumPatterns: 1, NumItems: 10},
		{NumTransactions: 1, AvgTxSize: 1, AvgPatternSize: 1, NumPatterns: 0, NumItems: 10},
		{NumTransactions: 1, AvgTxSize: 1, AvgPatternSize: 1, NumPatterns: 1, NumItems: 1},
	}
	for i, c := range bad {
		if _, err := Baskets(c); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: error = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestSequencesBasicShape(t *testing.T) {
	c := C10T2S4I1(200, 5)
	seqs, err := Sequences(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 200 {
		t.Fatalf("customers = %d", len(seqs))
	}
	totalTx := 0
	for _, s := range seqs {
		if len(s) == 0 {
			t.Fatal("empty customer sequence")
		}
		totalTx += len(s)
		for _, e := range s {
			if len(e) == 0 {
				t.Fatal("empty transaction in sequence")
			}
		}
	}
	avg := float64(totalTx) / float64(len(seqs))
	if avg < 6 || avg > 14 {
		t.Errorf("avg tx/customer = %v, want ~10", avg)
	}
}

func TestSequencesDeterministic(t *testing.T) {
	a, err := Sequences(C10T2S4I1(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sequences(C10T2S4I1(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("customer %d lengths differ", i)
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("customer %d element %d differs", i, j)
			}
		}
	}
}

func TestSequencesValidation(t *testing.T) {
	c := C10T2S4I1(10, 1)
	c.NumCustomers = 0
	if _, err := Sequences(c); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v", err)
	}
	c = C10T2S4I1(10, 1)
	c.NumItems = 1
	if _, err := Sequences(c); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v", err)
	}
}

func TestClassifyShapeAndDeterminism(t *testing.T) {
	for fn := 1; fn <= NumClassifyFunctions; fn++ {
		tbl, err := Classify(ClassifyConfig{NumRows: 500, Function: fn, Seed: 42})
		if err != nil {
			t.Fatalf("F%d: %v", fn, err)
		}
		if tbl.NumRows() != 500 {
			t.Fatalf("F%d rows = %d", fn, tbl.NumRows())
		}
		if tbl.NumClasses() != 2 {
			t.Fatalf("F%d classes = %d", fn, tbl.NumClasses())
		}
		dist, err := tbl.ClassDistribution()
		if err != nil {
			t.Fatal(err)
		}
		// Neither class should be empty for any function at n=500.
		if dist[0] == 0 || dist[1] == 0 {
			t.Errorf("F%d degenerate distribution %v", fn, dist)
		}
	}
	a, _ := Classify(ClassifyConfig{NumRows: 100, Function: 3, Seed: 1})
	b, _ := Classify(ClassifyConfig{NumRows: 100, Function: 3, Seed: 1})
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("same seed differs")
			}
		}
	}
}

func TestClassifyLabelsMatchPredicate(t *testing.T) {
	// With zero noise, relabelling rows with groupA must reproduce the
	// stored class exactly.
	tbl, err := Classify(ClassifyConfig{NumRows: 300, Function: 7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		var p [9]float64
		copy(p[:], row[:9])
		want := 1.0
		if groupA(7, p) {
			want = 0.0
		}
		if row[colClass] != want {
			t.Fatalf("row %d label mismatch", i)
		}
	}
}

func TestClassifyNoiseFlipsSomeLabels(t *testing.T) {
	noisy, _ := Classify(ClassifyConfig{NumRows: 1000, Function: 1, Noise: 0.2, Seed: 5})
	flips := 0
	for _, row := range noisy.Rows {
		var p [9]float64
		copy(p[:], row[:9])
		want := 1.0
		if groupA(1, p) {
			want = 0.0
		}
		if row[colClass] != want {
			flips++
		}
	}
	if flips < 100 || flips > 300 {
		t.Errorf("flips = %d, want ~200", flips)
	}
}

func TestClassifyAttributeRanges(t *testing.T) {
	tbl, err := Classify(ClassifyConfig{NumRows: 2000, Function: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		if row[ColSalary] < 20000 || row[ColSalary] > 150000 {
			t.Fatalf("row %d salary %v", i, row[ColSalary])
		}
		if row[ColSalary] >= 75000 && row[ColCommission] != 0 {
			t.Fatalf("row %d: commission must be 0 for salary >= 75000", i)
		}
		if row[ColAge] < 20 || row[ColAge] > 80 {
			t.Fatalf("row %d age %v", i, row[ColAge])
		}
		if row[ColELevel] < 0 || row[ColELevel] > 4 {
			t.Fatalf("row %d elevel %v", i, row[ColELevel])
		}
		if row[ColZipcode] < 1 || row[ColZipcode] > 9 {
			t.Fatalf("row %d zipcode %v", i, row[ColZipcode])
		}
	}
}

func TestClassifyValidation(t *testing.T) {
	cases := []ClassifyConfig{
		{NumRows: 0, Function: 1},
		{NumRows: 10, Function: 0},
		{NumRows: 10, Function: 11},
		{NumRows: 10, Function: 1, Noise: 1.5},
	}
	for i, c := range cases {
		if _, err := Classify(c); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error = %v", i, err)
		}
	}
}

func TestClassifyClassAttribute(t *testing.T) {
	tbl, _ := Classify(ClassifyConfig{NumRows: 10, Function: 1, Seed: 1})
	a, err := tbl.ClassAttribute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != dataset.Categorical || len(a.Values) != 2 {
		t.Errorf("class attribute = %+v", a)
	}
}

func TestGaussianMixture(t *testing.T) {
	p, err := GaussianMixture(GaussianConfig{
		NumPoints: 300, NumCluster: 3, Dims: 2, Spread: 0.5, Separation: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.X) != 300 || len(p.Labels) != 300 {
		t.Fatal("shape wrong")
	}
	counts := make([]int, 3)
	for _, l := range p.Labels {
		counts[l]++
	}
	for k, n := range counts {
		if n != 100 {
			t.Errorf("cluster %d count = %d, want 100", k, n)
		}
	}
	// With separation >> spread, within-cluster distances are far smaller
	// than between-cluster centroid distances on average.
	if !clustersSeparated(p, 3) {
		t.Error("clusters not separated despite high separation config")
	}
}

func clustersSeparated(p *Points, k int) bool {
	cent := make([][]float64, k)
	counts := make([]int, k)
	dims := len(p.X[0])
	for i := range cent {
		cent[i] = make([]float64, dims)
	}
	for i, x := range p.X {
		l := p.Labels[i]
		for d := range x {
			cent[l][d] += x[d]
		}
		counts[l]++
	}
	for i := range cent {
		for d := range cent[i] {
			cent[i][d] /= float64(counts[i])
		}
	}
	withinMax := 0.0
	for i, x := range p.X {
		d := euclid(x, cent[p.Labels[i]])
		if d > withinMax {
			withinMax = d
		}
	}
	betweenMin := math.Inf(1)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if d := euclid(cent[a], cent[b]); d < betweenMin {
				betweenMin = d
			}
		}
	}
	return betweenMin > withinMax
}

func euclid(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestGaussianMixtureValidation(t *testing.T) {
	if _, err := GaussianMixture(GaussianConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v", err)
	}
	if _, err := GaussianMixture(GaussianConfig{NumPoints: 1, NumCluster: 1, Dims: 1, Spread: 0, Separation: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero-spread error = %v", err)
	}
}

func TestGaussianGrid(t *testing.T) {
	p, err := GaussianGrid(GridConfig{NumPoints: 400, GridSide: 2, CentreDist: 20, Spread: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.X) != 400 {
		t.Fatal("shape")
	}
	for _, x := range p.X {
		if len(x) != 2 {
			t.Fatal("grid points must be 2-D")
		}
	}
	if !clustersSeparated(p, 4) {
		t.Error("grid clusters not separated")
	}
	if _, err := GaussianGrid(GridConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("validation error = %v", err)
	}
}

func TestShapes(t *testing.T) {
	for _, kind := range []ShapeKind{TwoMoons, Rings} {
		p, err := Shapes(ShapeConfig{Kind: kind, NumPoints: 200, Jitter: 0.05, NoiseFrac: 0.1, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.X) != 200 {
			t.Fatalf("kind %d: points = %d", kind, len(p.X))
		}
		noise := 0
		labels := map[int]int{}
		for _, l := range p.Labels {
			if l == -1 {
				noise++
			} else {
				labels[l]++
			}
		}
		if noise != 20 {
			t.Errorf("kind %d: noise = %d, want 20", kind, noise)
		}
		if len(labels) != 2 {
			t.Errorf("kind %d: cluster labels = %v", kind, labels)
		}
	}
}

func TestShapesValidation(t *testing.T) {
	if _, err := Shapes(ShapeConfig{NumPoints: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("error = %v", err)
	}
	if _, err := Shapes(ShapeConfig{NumPoints: 10, NoiseFrac: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("noise=1 error = %v", err)
	}
	if _, err := Shapes(ShapeConfig{Kind: ShapeKind(99), NumPoints: 10}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown shape error = %v", err)
	}
}

func TestRingsRadiiDistinct(t *testing.T) {
	p, err := Shapes(ShapeConfig{Kind: Rings, NumPoints: 400, Jitter: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range p.X {
		r := math.Hypot(x[0], x[1])
		switch p.Labels[i] {
		case 0:
			if math.Abs(r-1) > 0.3 {
				t.Fatalf("inner ring point radius %v", r)
			}
		case 1:
			if math.Abs(r-2.5) > 0.3 {
				t.Fatalf("outer ring point radius %v", r)
			}
		}
	}
}
