package dataset

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func twoClassTable(t *testing.T) *Table {
	t.Helper()
	tbl := New(
		NewNumericAttribute("x"),
		NewCategoricalAttribute("color", "red", "green", "blue"),
		NewCategoricalAttribute("class", "yes", "no"),
	)
	tbl.ClassIndex = 2
	rows := [][]float64{
		{1.0, 0, 0},
		{2.0, 1, 0},
		{3.0, 2, 1},
		{4.0, 0, 1},
		{5.0, 1, 0},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAttributeKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Error("kind String() wrong")
	}
	if AttributeKind(9).String() != "AttributeKind(9)" {
		t.Error("unknown kind String() wrong")
	}
}

func TestAttributeValueIndex(t *testing.T) {
	a := NewCategoricalAttribute("c", "x", "y")
	if got := a.ValueIndex("y"); got != 1 {
		t.Errorf("ValueIndex(y) = %d, want 1", got)
	}
	if got := a.ValueIndex("z"); got != -1 {
		t.Errorf("ValueIndex(z) = %d, want -1", got)
	}
	n := NewNumericAttribute("n")
	if got := n.ValueIndex("x"); got != -1 {
		t.Errorf("numeric ValueIndex = %d, want -1", got)
	}
}

func TestAttributeAddValue(t *testing.T) {
	a := NewCategoricalAttribute("c", "x")
	if got := a.AddValue("x"); got != 0 {
		t.Errorf("AddValue existing = %d, want 0", got)
	}
	if got := a.AddValue("y"); got != 1 {
		t.Errorf("AddValue new = %d, want 1", got)
	}
	if got := a.ValueIndex("y"); got != 1 {
		t.Errorf("ValueIndex after AddValue = %d, want 1", got)
	}
}

func TestAppendRowValidation(t *testing.T) {
	tbl := twoClassTable(t)
	if err := tbl.AppendRow([]float64{1}); !errors.Is(err, ErrRowWidth) {
		t.Errorf("short row error = %v, want ErrRowWidth", err)
	}
	if err := tbl.AppendRow([]float64{1, 9, 0}); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("out-of-range category error = %v, want ErrUnknownLabel", err)
	}
	if err := tbl.AppendRow([]float64{1, 0.5, 0}); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("fractional category error = %v, want ErrUnknownLabel", err)
	}
	if err := tbl.AppendRow([]float64{Missing, Missing, Missing}); err != nil {
		t.Errorf("missing cells should be accepted: %v", err)
	}
}

func TestColumnAndCellLabel(t *testing.T) {
	tbl := twoClassTable(t)
	col, err := tbl.Column(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 5 || col[2] != 3.0 {
		t.Errorf("column 0 = %v", col)
	}
	if _, err := tbl.Column(7); !errors.Is(err, ErrColumnBounds) {
		t.Errorf("out-of-range column error = %v", err)
	}
	if got := tbl.CellLabel(0, 1); got != "red" {
		t.Errorf("CellLabel categorical = %q", got)
	}
	if got := tbl.CellLabel(0, 0); got != "1" {
		t.Errorf("CellLabel numeric = %q", got)
	}
}

func TestClassHelpers(t *testing.T) {
	tbl := twoClassTable(t)
	if tbl.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", tbl.NumClasses())
	}
	dist, err := tbl.ClassDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 3 || dist[1] != 2 {
		t.Errorf("distribution = %v", dist)
	}
	maj, err := tbl.MajorityClass()
	if err != nil {
		t.Fatal(err)
	}
	if maj != 0 {
		t.Errorf("majority = %d, want 0", maj)
	}
	noClass := New(NewNumericAttribute("x"))
	if _, err := noClass.ClassDistribution(); !errors.Is(err, ErrNoClass) {
		t.Errorf("no-class error = %v", err)
	}
	if noClass.NumClasses() != 0 {
		t.Error("NumClasses without class should be 0")
	}
}

func TestSubset(t *testing.T) {
	tbl := twoClassTable(t)
	sub := tbl.Subset([]int{4, 0})
	if sub.NumRows() != 2 || sub.Rows[0][0] != 5.0 || sub.Rows[1][0] != 1.0 {
		t.Errorf("subset rows = %v", sub.Rows)
	}
	if sub.ClassIndex != tbl.ClassIndex {
		t.Error("subset lost class index")
	}
}

func TestSplit(t *testing.T) {
	tbl := twoClassTable(t)
	a, b, err := tbl.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 3 || b.NumRows() != 2 {
		t.Errorf("split sizes = %d, %d", a.NumRows(), b.NumRows())
	}
	if _, _, err := tbl.Split(0); !errors.Is(err, ErrBadProportion) {
		t.Errorf("p=0 error = %v", err)
	}
	if _, _, err := tbl.Split(1.5); !errors.Is(err, ErrBadProportion) {
		t.Errorf("p=1.5 error = %v", err)
	}
	tiny := New(NewNumericAttribute("x"))
	if _, _, err := tiny.Split(0.5); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty split error = %v", err)
	}
}

func TestSplitAlwaysNonEmpty(t *testing.T) {
	tbl := twoClassTable(t)
	for _, p := range []float64{0.01, 0.99} {
		a, b, err := tbl.Split(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumRows() == 0 || b.NumRows() == 0 {
			t.Errorf("p=%v gave empty part: %d/%d", p, a.NumRows(), b.NumRows())
		}
		if a.NumRows()+b.NumRows() != tbl.NumRows() {
			t.Errorf("p=%v lost rows", p)
		}
	}
}

func TestReadCSVInference(t *testing.T) {
	in := `x,color,class
1.5,red,yes
2.5,blue,no
?,red,yes
3.5,,no
`
	tbl, err := ReadCSV(strings.NewReader(in), "class")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Attributes[0].Kind != Numeric {
		t.Error("x should be numeric")
	}
	if tbl.Attributes[1].Kind != Categorical {
		t.Error("color should be categorical")
	}
	if tbl.ClassIndex != 2 {
		t.Errorf("ClassIndex = %d", tbl.ClassIndex)
	}
	if tbl.NumRows() != 4 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	if !IsMissing(tbl.Rows[2][0]) || !IsMissing(tbl.Rows[3][1]) {
		t.Error("missing cells not detected")
	}
	if got := tbl.CellLabel(1, 1); got != "blue" {
		t.Errorf("cell(1,1) = %q", got)
	}
}

func TestReadCSVNumericClassCoerced(t *testing.T) {
	in := "x,class\n1,0\n2,1\n"
	tbl, err := ReadCSV(strings.NewReader(in), "class")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbl.ClassAttribute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != Categorical {
		t.Error("numeric class column should be coerced to categorical")
	}
	if len(a.Values) != 2 {
		t.Errorf("class values = %v", a.Values)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), ""); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), "zzz"); err == nil {
		t.Error("unknown class column should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := twoClassTable(t)
	tbl.Rows[0][0] = Missing
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), "class")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	for i := range tbl.Rows {
		for j := range tbl.Attributes {
			a, b := tbl.CellLabel(i, j), back.CellLabel(i, j)
			if a != b {
				t.Errorf("cell (%d,%d): %q != %q", i, j, a, b)
			}
		}
	}
}

func TestFitEqualFrequency(t *testing.T) {
	tbl := New(NewNumericAttribute("x"))
	for i := 0; i < 100; i++ {
		if err := tbl.AppendRow([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := FitEqualFrequency(tbl, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.NumBins())
	for i := 0; i < 100; i++ {
		counts[d.Bin(float64(i))]++
	}
	for b, n := range counts {
		if n < 20 || n > 30 {
			t.Errorf("bin %d count = %d, want ~25", b, n)
		}
	}
	if got := d.Bin(d.Cuts[0]); got != 1 {
		t.Errorf("Bin(%v) = %d, want 1 (boundary goes up)", d.Cuts[0], got)
	}
	if got := d.Bin(Missing); got != -1 {
		t.Errorf("Bin(missing) = %d", got)
	}
}

func TestFitEqualFrequencyRepeatedValues(t *testing.T) {
	tbl := New(NewNumericAttribute("x"))
	for i := 0; i < 50; i++ {
		if err := tbl.AppendRow([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := FitEqualFrequency(tbl, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBins() > 2 {
		t.Errorf("constant column bins = %d, want collapsed", d.NumBins())
	}
}

func TestDiscretizerErrors(t *testing.T) {
	tbl := twoClassTable(t)
	if _, err := FitEqualFrequency(tbl, 0, 1); !errors.Is(err, ErrBadBins) {
		t.Errorf("1 bin error = %v", err)
	}
	if _, err := FitEqualFrequency(tbl, 1, 3); err == nil {
		t.Error("categorical column should error")
	}
	empty := New(NewNumericAttribute("x"))
	if _, err := FitEqualFrequency(empty, 0, 3); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty error = %v", err)
	}
}

// Property: every non-missing value lands in a valid bin, and bins are
// monotone in the value.
func TestDiscretizerProperty(t *testing.T) {
	tbl := New(NewNumericAttribute("x"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if err := tbl.AppendRow([]float64{rng.NormFloat64() * 10}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := FitEqualFrequency(tbl, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		ba, bb := d.Bin(a), d.Bin(b)
		if ba < 0 || ba >= d.NumBins() || bb < 0 || bb >= d.NumBins() {
			return false
		}
		if a <= b && ba > bb {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
