package eval

import (
	"testing"

	"repro/internal/bayes"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/rules"
	"repro/internal/synth"
	"repro/internal/tree"
)

// TestSignificanceTreeVs1ROnComplexFunction ties the evaluation harness to
// a claim over paired folds: on F3 (age × education interaction) the tree
// must beat 1R on every one of the 10 folds (a sign test puts that at
// p = 2/1024 two-sided) and by at least 20 points of mean fold accuracy
// (the gap reads about 28).
func TestSignificanceTreeVs1ROnComplexFunction(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	treeRes, err := CrossValidate(tbl, 10, 5, func(train *dataset.Table) (Classifier, error) {
		return tree.Build(train, tree.Config{Criterion: tree.GainRatio, MinLeaf: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	oneRRes, err := CrossValidate(tbl, 10, 5, func(train *dataset.Table) (Classifier, error) {
		return rules.Train1R(train)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(treeRes.FoldAccuracy) != 10 || len(oneRRes.FoldAccuracy) != 10 {
		t.Fatalf("fold accuracies: %d and %d, want 10 each", len(treeRes.FoldAccuracy), len(oneRRes.FoldAccuracy))
	}
	var gap float64
	for i, acc := range treeRes.FoldAccuracy {
		if acc <= oneRRes.FoldAccuracy[i] {
			t.Errorf("fold %d: tree %.3f <= 1R %.3f, tree should dominate", i, acc, oneRRes.FoldAccuracy[i])
		}
		gap += acc - oneRRes.FoldAccuracy[i]
	}
	if gap /= 10; gap < 0.2 {
		t.Errorf("mean fold accuracy gap = %.3f, want >= 0.2", gap)
	}
}

// TestHarnessWorksWithEveryClassifierKind exercises CrossValidate with
// classifiers from four different packages, confirming the Classifier
// interface boundary.
func TestHarnessWorksWithEveryClassifierKind(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 300, Function: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	trainers := map[string]Trainer{
		"tree": func(train *dataset.Table) (Classifier, error) {
			return tree.Build(train, tree.Config{})
		},
		"bayes": func(train *dataset.Table) (Classifier, error) {
			return bayes.Train(train)
		},
		"knn": func(train *dataset.Table) (Classifier, error) {
			return knn.Train(train, 3, true)
		},
		"1R": func(train *dataset.Table) (Classifier, error) {
			return rules.Train1R(train)
		},
	}
	for name, tr := range trainers {
		res, err := CrossValidate(tbl, 3, 1, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Accuracy() <= 0.5 {
			t.Errorf("%s: accuracy = %v", name, res.Accuracy())
		}
	}
}
