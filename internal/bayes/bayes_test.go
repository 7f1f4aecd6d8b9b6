package bayes

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func smallTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.New(
		dataset.NewCategoricalAttribute("color", "red", "blue"),
		dataset.NewNumericAttribute("size"),
		dataset.NewCategoricalAttribute("class", "a", "b"),
	)
	tbl.ClassIndex = 2
	rows := [][]float64{
		{0, 1.0, 0},
		{0, 1.2, 0},
		{0, 0.9, 0},
		{1, 5.0, 1},
		{1, 5.5, 1},
		{1, 4.8, 1},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil); !errors.Is(err, ErrNoRows) {
		t.Errorf("nil error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(noClass); !errors.Is(err, ErrNoClass) {
		t.Errorf("no-class error = %v", err)
	}
}

func TestPredictSeparable(t *testing.T) {
	tbl := smallTable(t)
	c, err := Train(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		if got := c.Predict(row); got != tbl.Class(i) {
			t.Errorf("row %d predicted %d, want %d", i, got, tbl.Class(i))
		}
	}
	// A new red small instance is class a; blue large is class b.
	if got := c.Predict([]float64{0, 1.1, 0}); got != 0 {
		t.Errorf("red small = %d", got)
	}
	if got := c.Predict([]float64{1, 5.2, 0}); got != 1 {
		t.Errorf("blue large = %d", got)
	}
}

func TestMissingValuesSkipped(t *testing.T) {
	tbl := smallTable(t)
	c, err := Train(tbl)
	if err != nil {
		t.Fatal(err)
	}
	allMissing := []float64{dataset.Missing, dataset.Missing, 0}
	p := c.LogPosterior(allMissing)
	// With everything missing, posterior equals the prior: equal here.
	if math.Abs(p[0]-p[1]) > 1e-9 {
		t.Errorf("all-missing posterior = %v, want prior", p)
	}
}

func TestLaplaceSmoothingNoZeroProbability(t *testing.T) {
	tbl := smallTable(t)
	c, err := Train(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// "blue" never occurs with class a; smoothing keeps it possible.
	scores := c.LogPosterior([]float64{1, 1.0, 0})
	for _, s := range scores {
		if math.IsInf(s, -1) || math.IsNaN(s) {
			t.Errorf("log posterior = %v", scores)
		}
	}
}

func TestConstantNumericAttribute(t *testing.T) {
	tbl := dataset.New(
		dataset.NewNumericAttribute("x"),
		dataset.NewCategoricalAttribute("class", "a", "b"),
	)
	tbl.ClassIndex = 1
	for i := 0; i < 6; i++ {
		if err := tbl.AppendRow([]float64{2.0, float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Train(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Predict([]float64{2.0, 0}); got != 0 && got != 1 {
		t.Errorf("degenerate predict = %d", got)
	}
}

func TestAccuracyOnIndependentFunction(t *testing.T) {
	// F1 depends only on age: a naive-Bayes-friendly function.
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 2000, Function: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(train)
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
	// F1's two age intervals are not Gaussian-separable perfectly, but NB
	// must beat the ~0.5 majority baseline comfortably.
	if acc < 0.6 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestPredictBeatsMajorityOnF7(t *testing.T) {
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 2000, Function: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: 7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	majority := make([]int, 2)
	for i, row := range test.Rows {
		if c.Predict(row) == test.Class(i) {
			correct++
		}
		majority[test.Class(i)]++
	}
	acc := float64(correct) / float64(test.NumRows())
	base := float64(max(majority[0], majority[1])) / float64(test.NumRows())
	if acc <= base {
		t.Errorf("accuracy %v <= majority baseline %v", acc, base)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
