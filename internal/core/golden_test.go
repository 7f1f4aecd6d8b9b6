package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// mixedTable builds a 90-row table whose features exercise every branch
// of the k-NN and neural-net feature encoding: three numeric columns (one
// with missing cells), two categorical columns (one with missing cells),
// a constant column and an all-missing numeric column. synth.Classify's
// features are all numeric, so only this table reaches the one-hot path.
// With three numeric columns a category mismatch competes with numeric
// distance, so the one-hot weight changes which neighbours k-NN finds.
func mixedTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.New(
		dataset.NewNumericAttribute("x"),
		dataset.NewNumericAttribute("y"),
		dataset.NewNumericAttribute("z"),
		dataset.NewCategoricalAttribute("color", "red", "green", "blue"),
		dataset.NewCategoricalAttribute("size", "s", "m", "l", "xl"),
		dataset.NewNumericAttribute("constant"),
		dataset.NewNumericAttribute("absent"),
		dataset.NewCategoricalAttribute("class", "no", "yes"),
	)
	tbl.ClassIndex = 7
	for i := 0; i < 90; i++ {
		x := float64((i*37)%101) / 10
		y := float64((i*53)%97) / 10
		z := float64((i*29)%89) / 10
		color := float64((i * 7) % 3)
		size := float64((i * 7) % 4)
		class := 0.0
		if (x+y > 9 && size != 1) || (color == 0 && i%3 == 0) {
			class = 1
		}
		if i%11 == 3 {
			x = dataset.Missing
		}
		if i%13 == 5 {
			color = dataset.Missing
		}
		if err := tbl.AppendRow([]float64{x, y, z, color, size, 2.5, dataset.Missing, class}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestLineupGolden pins every ExtendedClassifiers entry's cross-validated
// accuracy and macro-F1, to the last bit, on an all-numeric synth table
// and on mixedTable. A change to a lineup's constants, to a learner, or
// to the feature encoding k-NN and the neural net share moves a value.
// The figures are amd64 float output.
func TestLineupGolden(t *testing.T) {
	f2, err := synth.Classify(synth.ClassifyConfig{NumRows: 300, Function: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		name string
		tbl  *dataset.Table
		want []string
	}{
		{"synth-F2", f2, []string{
			"tree(pruned) 0.68666666666666665 0.6717265785062394",
			"naivebayes 0.64000000000000001 0.60610776113596576",
			"knn(k=5) 0.71666666666666667 0.67711301044634387",
			"neuralnet 0.67000000000000004 0.64119601328903653",
			"1R 0.70333333333333337 0.67743884022953793",
			"bagging 0.82333333333333336 0.8171888473699338",
			"adaboost 0.70999999999999996 0.70726454984914588",
		}},
		{"mixed", mixedTable(t), []string{
			"tree(pruned) 0.69999999999999996 0.68600594392040315",
			"naivebayes 0.83333333333333337 0.82373678025851937",
			"knn(k=5) 0.85555555555555551 0.8502112405581872",
			"neuralnet 0.92222222222222228 0.91774383078730914",
			"1R 0.53333333333333333 0.47499999999999998",
			"bagging 0.67777777777777781 0.67091161265918542",
			"adaboost 0.82222222222222219 0.81298701298701304",
		}},
	}
	for _, tc := range tables {
		comps, err := CompareClassifiers(tc.tbl, ExtendedClassifiers(), 3, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, c := range comps {
			got = append(got, fmt.Sprintf("%s %.17g %.17g", c.Name, c.Accuracy, c.MacroF1))
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d classifiers, want %d:\n%q", tc.name, len(got), len(tc.want), got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %q, want %q", tc.name, got[i], tc.want[i])
			}
		}
	}
}
