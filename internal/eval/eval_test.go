package eval

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/tree"
)

func TestConfusionMatrixMeasures(t *testing.T) {
	m := NewConfusionMatrix([]string{"a", "b"})
	// actual a: 8 correct, 2 as b; actual b: 3 as a, 7 correct.
	for i := 0; i < 8; i++ {
		m.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		m.Add(0, 1)
	}
	for i := 0; i < 3; i++ {
		m.Add(1, 0)
	}
	for i := 0; i < 7; i++ {
		m.Add(1, 1)
	}
	if m.Total() != 20 {
		t.Errorf("Total = %d", m.Total())
	}
	if got := m.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := m.Precision(0); math.Abs(got-8.0/11.0) > 1e-12 {
		t.Errorf("Precision(0) = %v", got)
	}
	if got := m.Recall(0); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Recall(0) = %v", got)
	}
	p, r := 8.0/11.0, 0.8
	if got := m.F1(0); math.Abs(got-2*p*r/(p+r)) > 1e-12 {
		t.Errorf("F1(0) = %v", got)
	}
	if m.MacroF1() <= 0 || m.MacroF1() > 1 {
		t.Errorf("MacroF1 = %v", m.MacroF1())
	}
	s := m.String()
	if !strings.Contains(s, "a\t8\t2") {
		t.Errorf("String() = %q", s)
	}
}

func TestConfusionMatrixEdgeCases(t *testing.T) {
	m := NewConfusionMatrix([]string{"a", "b"})
	if m.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
	if m.Precision(0) != 0 || m.Recall(0) != 0 || m.F1(0) != 0 {
		t.Error("empty per-class measures should be 0")
	}
	m.Add(-1, 0) // out of range ignored
	m.Add(0, 5)
	if m.Total() != 0 {
		t.Error("out-of-range adds must be ignored")
	}
}

func TestStratifiedFoldsBalanced(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 400, Function: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	foldOf, err := StratifiedFolds(tbl, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Per-fold class distribution stays within ±2 of the per-fold share.
	perFold := make([]map[int]int, 10)
	for i := range perFold {
		perFold[i] = make(map[int]int)
	}
	classTotal := make(map[int]int)
	for i, f := range foldOf {
		perFold[f][tbl.Class(i)]++
		classTotal[tbl.Class(i)]++
	}
	for c, total := range classTotal {
		share := float64(total) / 10
		for f := range perFold {
			got := float64(perFold[f][c])
			if math.Abs(got-share) > 2 {
				t.Errorf("fold %d class %d count %v, share %v", f, c, got, share)
			}
		}
	}
}

func TestCrossValidateTree(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 600, Function: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossValidate(tbl, 5, 7, func(train *dataset.Table) (Classifier, error) {
		return tree.Build(train, tree.Config{MinLeaf: 5})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracy) != 5 {
		t.Fatalf("folds = %d", len(res.FoldAccuracy))
	}
	if res.Accuracy() < 0.85 {
		t.Errorf("CV accuracy = %v", res.Accuracy())
	}
	if res.Matrix.Total() != tbl.NumRows() {
		t.Errorf("matrix total = %d, want %d", res.Matrix.Total(), tbl.NumRows())
	}
}

func TestCrossValidateValidation(t *testing.T) {
	tbl, _ := synth.Classify(synth.ClassifyConfig{NumRows: 20, Function: 1, Seed: 3})
	trainer := func(train *dataset.Table) (Classifier, error) {
		return tree.Build(train, tree.Config{})
	}
	if _, err := CrossValidate(nil, 5, 1, trainer); !errors.Is(err, ErrNoRows) {
		t.Errorf("nil error = %v", err)
	}
	if _, err := CrossValidate(tbl, 1, 1, trainer); !errors.Is(err, ErrBadFolds) {
		t.Errorf("folds=1 error = %v", err)
	}
	if _, err := CrossValidate(tbl, 21, 1, trainer); !errors.Is(err, ErrBadFolds) {
		t.Errorf("folds>n error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := CrossValidate(noClass, 2, 1, trainer); !errors.Is(err, ErrNoClass) {
		t.Errorf("no-class error = %v", err)
	}
}

func TestCrossValidateTrainerError(t *testing.T) {
	tbl, _ := synth.Classify(synth.ClassifyConfig{NumRows: 20, Function: 1, Seed: 4})
	boom := errors.New("boom")
	_, err := CrossValidate(tbl, 2, 1, func(train *dataset.Table) (Classifier, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want wrapped boom", err)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	tbl, _ := synth.Classify(synth.ClassifyConfig{NumRows: 300, Function: 2, Seed: 8})
	trainer := func(train *dataset.Table) (Classifier, error) {
		return tree.Build(train, tree.Config{MinLeaf: 3})
	}
	a, err := CrossValidate(tbl, 5, 99, trainer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(tbl, 5, 99, trainer)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.FoldAccuracy {
		if a.FoldAccuracy[i] != b.FoldAccuracy[i] {
			t.Fatal("same seed produced different folds")
		}
	}
}
