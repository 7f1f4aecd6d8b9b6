// Package core holds the survey's classifier lineups: the tutorial's
// "data mining techniques" toolbox, as tables of named trainers that the
// classification experiments, the examples and `dmine classify`
// cross-validate. Clusterers need no registry; their callers run each
// cluster algorithm's Run directly. For frequent-itemset mining the
// public, versioned entry point is the module-root mining package
// (context-aware Mine/MineStream and the stateful mining.Session) over
// assoc.Registered; there is no itemset-miner registry here.
package core

import (
	"errors"
	"fmt"

	"repro/internal/bayes"
	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/neural"
	"repro/internal/rules"
	"repro/internal/tree"
)

// ErrUnknownAlgorithm reports a name missing from a registry.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Trainer is one lineup entry: the name a table or CLI prints, and the
// function cross-validation calls on each training fold.
type Trainer struct {
	Name  string
	Train eval.Trainer
}

// Classifiers returns the standard classifier suite of the survey, the
// lineup the EXP-T1 comparison sweeps.
func Classifiers() []Trainer {
	return []Trainer{
		{"tree(pruned)", func(t *dataset.Table) (eval.Classifier, error) {
			model, err := tree.Build(t, tree.Config{Criterion: tree.GainRatio, MinLeaf: 2})
			if err != nil {
				return nil, err
			}
			model.PrunePessimistic(0.25)
			return model, nil
		}},
		{"naivebayes", func(t *dataset.Table) (eval.Classifier, error) {
			return bayes.Train(t)
		}},
		{"knn(k=5)", func(t *dataset.Table) (eval.Classifier, error) {
			return knn.Train(t, min(5, t.NumRows()), true)
		}},
		{"neuralnet", func(t *dataset.Table) (eval.Classifier, error) {
			return neural.Train(t, neural.Config{Hidden: []int{8}, Epochs: 30, LearningRate: 0.3, Momentum: 0.5})
		}},
		{"1R", func(t *dataset.Table) (eval.Classifier, error) {
			return rules.Train1R(t)
		}},
	}
}

// ExtendedClassifiers returns Classifiers() plus the committee methods —
// the survey era's "future work" that arrived while the tutorial was in
// press (bagging 1994, AdaBoost 1995).
func ExtendedClassifiers() []Trainer {
	return append(Classifiers(),
		Trainer{"bagging", func(t *dataset.Table) (eval.Classifier, error) {
			bag := &ensemble.Bagging{Rounds: 10, Tree: tree.Config{Criterion: tree.GainRatio, MinLeaf: 2}}
			return bag.Train(t)
		}},
		Trainer{"adaboost", func(t *dataset.Table) (eval.Classifier, error) {
			boost := &ensemble.AdaBoost{Rounds: 20, MaxDepth: 3}
			return boost.Train(t)
		}},
	)
}

// ClassifierByName finds a trainer in ExtendedClassifiers() by name.
func ClassifierByName(name string) (Trainer, error) {
	for _, c := range ExtendedClassifiers() {
		if c.Name == name {
			return c, nil
		}
	}
	return Trainer{}, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, name)
}

// Comparison is one classifier's cross-validated performance.
type Comparison struct {
	Name     string
	Accuracy float64
	MacroF1  float64
	FoldAcc  []float64
}

// CompareClassifiers cross-validates every trainer on the table.
func CompareClassifiers(t *dataset.Table, trainers []Trainer, folds int, seed int64) ([]Comparison, error) {
	var out []Comparison
	for _, tr := range trainers {
		res, err := eval.CrossValidate(t, folds, seed, tr.Train)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", tr.Name, err)
		}
		out = append(out, Comparison{
			Name:     tr.Name,
			Accuracy: res.Accuracy(),
			MacroF1:  res.Matrix.MacroF1(),
			FoldAcc:  res.FoldAccuracy,
		})
	}
	return out, nil
}
