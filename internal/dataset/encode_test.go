package dataset

import (
	"math"
	"reflect"
	"testing"
)

// TestEncoderVectors pins the exact vectors for k-NN's one-hot weight
// (1/√2, so two differing categories are 1 apart in squared distance)
// and the neural net's (1). The table has a numeric column with a
// missing cell, a categorical column with a missing cell, the class in
// the middle, a constant column and an all-missing numeric column. The
// last two rows are not in the table: one lies outside every fitted
// range with an out-of-range category, and one has a negative category.
func TestEncoderVectors(t *testing.T) {
	tbl := New(
		NewNumericAttribute("a"),
		NewCategoricalAttribute("color", "r", "g", "b"),
		NewCategoricalAttribute("class", "no", "yes"),
		NewNumericAttribute("c"),
		NewNumericAttribute("d"),
	)
	tbl.ClassIndex = 2
	for _, r := range [][]float64{
		{1, 0, 0, 4, Missing},
		{3, 2, 1, 4, Missing},
		{Missing, 1, 0, 4, Missing},
		{5, Missing, 1, 4, Missing},
	} {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	rows := append(append([][]float64(nil), tbl.Rows...),
		[]float64{7, 9, 0, 2, 1.5},
		[]float64{-1, -1, 1, 4, 0},
	)
	const h = 0.7071067811865476
	for _, tc := range []struct {
		weight float64
		want   [][]float64
	}{
		{1 / math.Sqrt2, [][]float64{
			{0, h, 0, 0, 0, 0.5},
			{0.5, 0, 0, h, 0, 0.5},
			{0.5, 0, h, 0, 0, 0.5},
			{1, 0, 0, 0, 0, 0.5},
			{1.5, 0, 0, 0, -2, 1.5},
			{-0.5, 0, 0, 0, 0, 0},
		}},
		{1, [][]float64{
			{0, 1, 0, 0, 0, 0.5},
			{0.5, 0, 0, 1, 0, 0.5},
			{0.5, 0, 1, 0, 0, 0.5},
			{1, 0, 0, 0, 0, 0.5},
			{1.5, 0, 0, 0, -2, 1.5},
			{-0.5, 0, 0, 0, 0, 0},
		}},
	} {
		enc := NewEncoder(tbl, tc.weight)
		for i, row := range rows {
			if got := enc.Encode(row); !reflect.DeepEqual(got, tc.want[i]) {
				t.Errorf("weight %v row %d: got %v, want %v", tc.weight, i, got, tc.want[i])
			}
		}
	}
}

func TestNumericRange(t *testing.T) {
	tbl := New(NewNumericAttribute("x"), NewNumericAttribute("gone"))
	for _, r := range [][]float64{{3, Missing}, {Missing, Missing}, {-2, Missing}, {7, Missing}} {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if min, max, ok := tbl.NumericRange(0); min != -2 || max != 7 || !ok {
		t.Errorf("NumericRange(0) = %v, %v, %v; want -2, 7, true", min, max, ok)
	}
	if min, max, ok := tbl.NumericRange(1); min != 0 || max != 0 || ok {
		t.Errorf("NumericRange(1) = %v, %v, %v; want 0, 0, false", min, max, ok)
	}
}
