package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// linearDraw is the reference draw that Weighted.Choice must reproduce:
// total the positive weights in order, scale one Float64 by it, and walk.
func linearDraw(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	return linearWalk(weights, rng.Float64()*total)
}

// linearWalk subtracts the positive (and NaN) weights from r in order and
// stops where r first reaches 0 or below, else takes the last positive
// index.
func linearWalk(weights []float64, r float64) int {
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r <= 0 {
			return i
		}
	}
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// stubSource returns its values in order, then zeros, so a test can put
// rng.Float64() (= Int63/2⁶³) exactly where it wants.
type stubSource struct{ vals []int64 }

func (s *stubSource) Int63() int64 {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *stubSource) Seed(int64) {}

func stubRand(vals ...int64) *rand.Rand { return rand.New(&stubSource{vals: vals}) }

// weightVectors returns the shapes the exactness tests run on.
func weightVectors() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	exp := func(n int, normalise bool) []float64 {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = rng.ExpFloat64()
			total += w[i]
		}
		if normalise {
			for i := range w {
				w[i] /= total
			}
		}
		return w
	}
	wide := make([]float64, 300)
	for i := range wide {
		// Log-uniform over 1e-300 .. 1e300.
		wide[i] = math.Pow(10, -300+600*rng.Float64())
	}
	narrow := make([]float64, 400)
	for i := range narrow {
		narrow[i] = math.Pow(10, -6+12*rng.Float64())
	}
	mixed := exp(500, false)
	for i := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[i] = 0
		case 1:
			mixed[i] = -mixed[i]
		}
	}
	subnormal := make([]float64, 50)
	for i := range subnormal {
		subnormal[i] = math.Float64frombits(uint64(1 + rng.Intn(1<<20)))
	}
	return map[string][]float64{
		"single":                {0.7},
		"single among zeros":    {0, 0, 3, 0, -1},
		"small ints":            {1, 3, 0, 6},
		"tenths":                {0.1, 0.2, 0.3, 0.1, 0.7, 0.3, 0.2, 0.1},
		"zeros and negatives":   mixed,
		"subnormals":            subnormal,
		"subnormal and normal":  {5e-324, 1e-310, 1, 5e-324},
		"1e-300 to 1e300":       wide,
		"1e-6 to 1e6":           narrow,
		"2000 exponential":      exp(2000, false),
		"2000 normalised (|L|)": exp(2000, true),
	}
}

// TestWeightedMatchesLinearScan compares Choice draw for draw with the
// reference walk on twin generators.
func TestWeightedMatchesLinearScan(t *testing.T) {
	for name, w := range weightVectors() {
		s := NewWeighted(w)
		a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for d := 0; d < 20000; d++ {
			if got, want := s.Choice(a), linearDraw(b, w); got != want {
				t.Fatalf("%s: draw %d = %d, want %d", name, d, got, want)
			}
		}
	}
}

// TestWeightedInsideTheMargin puts r on every prefix sum and a few ulps and
// margins either side of it, where the search must hand over to the walk.
func TestWeightedInsideTheMargin(t *testing.T) {
	for name, w := range weightVectors() {
		s := NewWeighted(w)
		var rs []float64
		for _, p := range s.prefix {
			up, down := p, p
			for k := 0; k < 4; k++ {
				rs = append(rs, up, down)
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			}
			for _, m := range []float64{0.5, 1, 2} {
				rs = append(rs, p+m*s.margin, p-m*s.margin)
			}
		}
		for _, r := range rs {
			if r < 0 || r > s.total {
				continue
			}
			if got, _ := s.pick(r); got != linearWalk(w, r) {
				t.Fatalf("%s: pick(%v) = %d, want %d (margin %v)", name, r, got, linearWalk(w, r), s.margin)
			}
		}
	}
}

// TestWeightedSearchesQuestPools checks that the walk stays a rare fallback
// on a Quest-sized pool, so the draw really is O(log n).
func TestWeightedSearchesQuestPools(t *testing.T) {
	w := weightVectors()["2000 normalised (|L|)"]
	s := NewWeighted(w)
	rng := rand.New(rand.NewSource(8))
	walked := 0
	const draws = 200000
	for d := 0; d < draws; d++ {
		if _, searched := s.pick(rng.Float64() * s.total); !searched {
			walked++
		}
	}
	if walked > draws/1000 {
		t.Errorf("%d of %d draws walked, want at most 0.1%%", walked, draws)
	}
}

func TestWeightedNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string][]float64{
		"NaN first":      {nan, 1, 2, 3},
		"NaN middle":     {1, 2, nan, 3, 4},
		"NaN last":       {1, 2, 3, nan},
		"+Inf":           {1, inf, 2},
		"-Inf":           {1, math.Inf(-1), 2},
		"total overflow": {math.MaxFloat64, math.MaxFloat64, 1},
		"only NaN":       {nan, nan},
	}
	for name, w := range cases {
		s := NewWeighted(w)
		if s.search {
			t.Errorf("%s: searchable, want every draw walked", name)
		}
		a, b := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
		for d := 0; d < 2000; d++ {
			if got, want := s.Choice(a), linearDraw(b, w); got != want {
				t.Fatalf("%s: draw %d = %d, want %d", name, d, got, want)
			}
		}
	}
	// The walk sends NaN's draws past it: after {1, NaN, 2} only index 0
	// or the last positive index can come up, never 1.
	s := NewWeighted([]float64{1, nan, 2})
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 1000; d++ {
		if got := s.Choice(rng); got == 1 {
			t.Fatal("drew the NaN index")
		}
	}
}

// TestWeightedFallbackOnBoundaries uses a stub source to put r exactly on
// a prefix sum, on 0 and on the total, and checks that the walk decided.
func TestWeightedFallbackOnBoundaries(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		name    string
		weights []float64
		int63   int64
		r       float64
		want    int
	}{
		// Float64() = 2⁶¹/2⁶³ = 0.25, r = 0.25·4 = 1 = prefix[0].
		{"on a prefix", []float64{1, 1, 2}, 1 << 61, 1, 0},
		{"on a later prefix", []float64{1, 1, 2}, 1 << 62, 2, 1},
		{"on 0", []float64{0, 1, 2}, 0, 0, 1},
		// Float64() = 1-2⁻⁵³; at a subnormal total the product rounds up
		// to the total itself.
		{"on the total", []float64{tiny, 2 * tiny}, 1<<63 - 1024, 3 * tiny, 1},
	}
	for _, tc := range cases {
		s := NewWeighted(tc.weights)
		if r := stubRand(tc.int63).Float64() * s.total; r != tc.r {
			t.Fatalf("%s: r = %v, want %v", tc.name, r, tc.r)
		}
		got, searched := s.pick(tc.r)
		if searched {
			t.Errorf("%s: the search decided r = %v, want the walk", tc.name, tc.r)
		}
		if got != tc.want {
			t.Errorf("%s: pick = %d, want %d", tc.name, got, tc.want)
		}
		if c, ref := s.Choice(stubRand(tc.int63)), linearDraw(stubRand(tc.int63), tc.weights); c != ref || c != tc.want {
			t.Errorf("%s: Choice = %d, reference = %d, want %d", tc.name, c, ref, tc.want)
		}
	}
}

// FuzzWeighted checks Choice against the reference walk on arbitrary
// weight bit patterns (8 bytes each) and one arbitrary Int63.
func FuzzWeighted(f *testing.F) {
	enc := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(enc(1, 1, 2), int64(1<<61))
	f.Add(enc(0.1, 0.2, 0.3, math.NaN(), 0.4), int64(12345678901234))
	f.Add(enc(math.SmallestNonzeroFloat64, 1e300, -1, 0), int64(1<<63-1024))
	f.Add(enc(math.MaxFloat64, math.MaxFloat64), int64(1<<62))
	f.Fuzz(func(t *testing.T, data []byte, v int64) {
		v &= math.MaxInt64
		n := min(len(data)/8, 256)
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		s := NewWeighted(w)
		if got, want := s.Choice(stubRand(v)), linearDraw(stubRand(v), w); got != want {
			t.Fatalf("Choice = %d, reference = %d (weights %v, Int63 %d)", got, want, w, v)
		}
		if s.total <= 0 {
			return
		}
		for _, p := range s.prefix {
			for _, r := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
				if r < 0 || r > s.total {
					continue
				}
				if got, _ := s.pick(r); got != linearWalk(w, r) {
					t.Fatalf("pick(%v) = %d, want %d (weights %v)", r, got, linearWalk(w, r), w)
				}
			}
		}
	})
}
