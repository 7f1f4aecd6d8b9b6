// Package eval provides the model-evaluation harness used by the
// classifier experiments: stratified k-fold cross-validation, confusion
// matrices with the standard derived measures (accuracy, precision,
// recall, F1). Cross-validation costs folds × one training plus one
// O(rows) scoring pass; everything is deterministic given the fold seed.
package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// Classifier is anything that predicts a class index for a row.
type Classifier interface {
	Predict(row []float64) int
}

// Trainer builds a classifier from a training table.
type Trainer func(train *dataset.Table) (Classifier, error)

// Errors returned by the harness.
var (
	ErrBadFolds = errors.New("eval: folds must be in [2, n]")
	ErrNoClass  = errors.New("eval: table has no categorical class attribute")
	ErrNoRows   = errors.New("eval: empty table")
)

// ConfusionMatrix accumulates actual-vs-predicted counts.
// Cell [a][p] counts rows of actual class a predicted as p.
type ConfusionMatrix struct {
	Classes []string
	Counts  [][]int
}

// NewConfusionMatrix returns an empty matrix for the given class labels.
func NewConfusionMatrix(classes []string) *ConfusionMatrix {
	m := &ConfusionMatrix{Classes: classes, Counts: make([][]int, len(classes))}
	for i := range m.Counts {
		m.Counts[i] = make([]int, len(classes))
	}
	return m
}

// Add records one observation.
func (m *ConfusionMatrix) Add(actual, predicted int) {
	if actual >= 0 && actual < len(m.Counts) && predicted >= 0 && predicted < len(m.Counts) {
		m.Counts[actual][predicted]++
	}
}

// Total returns the number of observations.
func (m *ConfusionMatrix) Total() int {
	n := 0
	for _, row := range m.Counts {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// Accuracy is the fraction of correct predictions.
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range m.Counts {
		correct += m.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// Precision of class c: TP / (TP + FP). Returns 0 when never predicted.
func (m *ConfusionMatrix) Precision(c int) float64 {
	tp := m.Counts[c][c]
	predicted := 0
	for a := range m.Counts {
		predicted += m.Counts[a][c]
	}
	if predicted == 0 {
		return 0
	}
	return float64(tp) / float64(predicted)
}

// Recall of class c: TP / (TP + FN). Returns 0 when the class is absent.
func (m *ConfusionMatrix) Recall(c int) float64 {
	tp := m.Counts[c][c]
	actual := 0
	for _, n := range m.Counts[c] {
		actual += n
	}
	if actual == 0 {
		return 0
	}
	return float64(tp) / float64(actual)
}

// F1 of class c is the harmonic mean of precision and recall.
func (m *ConfusionMatrix) F1(c int) float64 {
	p, r := m.Precision(c), m.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages F1 over classes.
func (m *ConfusionMatrix) MacroF1() float64 {
	if len(m.Classes) == 0 {
		return 0
	}
	total := 0.0
	for c := range m.Classes {
		total += m.F1(c)
	}
	return total / float64(len(m.Classes))
}

// String renders the matrix with row = actual, column = predicted.
func (m *ConfusionMatrix) String() string {
	out := "actual\\pred"
	for _, c := range m.Classes {
		out += fmt.Sprintf("\t%s", c)
	}
	out += "\n"
	for a, row := range m.Counts {
		out += m.Classes[a]
		for _, n := range row {
			out += fmt.Sprintf("\t%d", n)
		}
		out += "\n"
	}
	return out
}

// CVResult is the outcome of a cross-validation run.
type CVResult struct {
	Matrix *ConfusionMatrix
	// FoldAccuracy holds per-fold accuracies for significance testing.
	FoldAccuracy []float64
}

// Accuracy is the pooled accuracy over all folds.
func (r *CVResult) Accuracy() float64 { return r.Matrix.Accuracy() }

// CrossValidate runs stratified k-fold cross-validation: rows of each
// class are dealt round-robin across folds after a seeded shuffle, so fold
// class balance matches the dataset.
func CrossValidate(t *dataset.Table, folds int, seed int64, trainer Trainer) (*CVResult, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	classAttr, err := t.ClassAttribute()
	if err != nil {
		return nil, ErrNoClass
	}
	if folds < 2 || folds > t.NumRows() {
		return nil, fmt.Errorf("%w: folds=%d n=%d", ErrBadFolds, folds, t.NumRows())
	}
	foldOf, err := StratifiedFolds(t, folds, seed)
	if err != nil {
		return nil, err
	}
	res := &CVResult{Matrix: NewConfusionMatrix(classAttr.Values)}
	for f := 0; f < folds; f++ {
		var trainIdx, testIdx []int
		for i, fi := range foldOf {
			if fi == f {
				testIdx = append(testIdx, i)
			} else {
				trainIdx = append(trainIdx, i)
			}
		}
		if len(testIdx) == 0 {
			continue
		}
		clf, err := trainer(t.Subset(trainIdx))
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		correct := 0
		for _, i := range testIdx {
			pred := clf.Predict(t.Rows[i])
			res.Matrix.Add(t.Class(i), pred)
			if pred == t.Class(i) {
				correct++
			}
		}
		res.FoldAccuracy = append(res.FoldAccuracy, float64(correct)/float64(len(testIdx)))
	}
	return res, nil
}

// StratifiedFolds assigns each row a fold id in [0, folds) with per-class
// round-robin dealing after a seeded shuffle.
func StratifiedFolds(t *dataset.Table, folds int, seed int64) ([]int, error) {
	if _, err := t.ClassAttribute(); err != nil {
		return nil, ErrNoClass
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := make(map[int][]int)
	for i := range t.Rows {
		c := t.Class(i)
		byClass[c] = append(byClass[c], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	foldOf := make([]int, t.NumRows())
	next := 0
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			foldOf[i] = next % folds
			next++
		}
	}
	return foldOf, nil
}
