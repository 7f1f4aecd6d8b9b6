package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestChiSquareIndependence(t *testing.T) {
	// Perfectly independent table: chi2 == 0, p == 1.
	table := [][]float64{{10, 20}, {20, 40}}
	chi2, df, p, err := ChiSquare(table)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(chi2, 0, 1e-9) || df != 1 || !almostEqual(p, 1, 1e-9) {
		t.Errorf("independent: chi2=%v df=%d p=%v", chi2, df, p)
	}
}

func TestChiSquareKnownValue(t *testing.T) {
	// Classic 2x2 example: chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
	table := [][]float64{{20, 30}, {30, 20}}
	chi2, df, p, err := ChiSquare(table)
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 * math.Pow(20*20-30*30, 2) / (50 * 50 * 50 * 50)
	if !almostEqual(chi2, want, 1e-9) {
		t.Errorf("chi2 = %v, want %v", chi2, want)
	}
	if df != 1 {
		t.Errorf("df = %d, want 1", df)
	}
	// chi2 = 4.0 with df 1 => p ~ 0.0455.
	if !almostEqual(p, 0.04550026, 1e-6) {
		t.Errorf("p = %v, want ~0.0455", p)
	}
}

func TestChiSquareZeroMarginIgnored(t *testing.T) {
	table := [][]float64{{10, 20, 0}, {20, 40, 0}}
	_, df, _, err := ChiSquare(table)
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 {
		t.Errorf("df = %d, want 1 (zero column ignored)", df)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, _, err := ChiSquare(nil); err == nil {
		t.Error("nil table should error")
	}
	if _, _, _, err := ChiSquare([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table should error")
	}
	if _, _, _, err := ChiSquare([][]float64{{1, -2}}); err == nil {
		t.Error("negative cell should error")
	}
	if _, _, _, err := ChiSquare([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("all-zero table should error")
	}
}

func TestChiSquareSurvivalReferenceValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	tests := []struct {
		chi2 float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{6.635, 1, 0.01},
		{0, 1, 1},
	}
	for _, tt := range tests {
		got := ChiSquareSurvival(tt.chi2, tt.df)
		if !almostEqual(got, tt.want, 5e-4) {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want ~%v", tt.chi2, tt.df, got, tt.want)
		}
	}
}

func TestPoissonMeanMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0.5, 2, 10, 50} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += Poisson(rng, mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson mean %v: sample mean %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Poisson(rng, 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(rng, -3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 4)
	}
	if got := sum / float64(n); math.Abs(got-4) > 0.15 {
		t.Errorf("Exponential mean = %v, want ~4", got)
	}
}

func TestWeightedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{1, 3, 0, 6}
	s := NewWeighted(weights)
	counts := make([]int, len(weights))
	n := 50000
	for i := 0; i < n; i++ {
		idx := s.Choice(rng)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[2])
	}
	ratio := float64(counts[3]) / float64(counts[0])
	if math.Abs(ratio-6) > 1 {
		t.Errorf("weight ratio = %v, want ~6", ratio)
	}
}

func TestWeightedDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := NewWeighted(nil).Choice(rng); got != -1 {
		t.Errorf("empty weights = %d, want -1", got)
	}
	if got := NewWeighted([]float64{0, -1}).Choice(rng); got != -1 {
		t.Errorf("non-positive weights = %d, want -1", got)
	}
	// A -1 draw consumes nothing, so the stream continues where it was.
	if got, want := rng.Int63(), rand.New(rand.NewSource(4)).Int63(); got != want {
		t.Errorf("a -1 draw consumed the rng: next Int63 = %d, want %d", got, want)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := SampleWithoutReplacement(rng, 100, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Errorf("value %d out of range", v)
		}
		if seen[v] {
			t.Errorf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if got := SampleWithoutReplacement(rng, 0, 5); got != nil {
		t.Errorf("n=0 should return nil, got %v", got)
	}
	got := SampleWithoutReplacement(rng, 4, 10)
	if len(got) != 4 {
		t.Errorf("k>n should return full permutation, len=%d", len(got))
	}
}

// Property: sampling k of n always yields k distinct in-range values.
func TestSampleWithoutReplacementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw % 200)
		got := SampleWithoutReplacement(rng, n, k)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: chi-square of any table proportional to an outer product of
// marginals is ~0 (independence).
func TestChiSquareIndependenceProperty(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, dRaw uint8) bool {
		a := float64(aRaw%50) + 1
		b := float64(bRaw%50) + 1
		c := float64(cRaw%50) + 1
		d := float64(dRaw%50) + 1
		// Build rank-1 table: rows (a, b) x cols (c, d).
		table := [][]float64{{a * c, a * d}, {b * c, b * d}}
		chi2, _, _, err := ChiSquare(table)
		return err == nil && chi2 < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
