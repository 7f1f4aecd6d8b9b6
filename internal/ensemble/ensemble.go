// Package ensemble implements the two classic committee methods that
// closed out the survey era: bootstrap aggregating (Breiman, 1994) and
// AdaBoost.M1 (Freund & Schapire, 1995), both over the library's decision
// trees. AdaBoost uses the standard resampling formulation: each round
// draws a bootstrap sample proportional to the example weights, so the
// base learner needs no weighted-training support. Both cost rounds × one
// base-tree training; bagging's rounds are independent, boosting's are
// sequential.
package ensemble

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/tree"
)

// Errors returned by the trainers.
var (
	ErrNoRows  = errors.New("ensemble: empty training table")
	ErrNoClass = errors.New("ensemble: table has no categorical class attribute")
	ErrConfig  = errors.New("ensemble: invalid configuration")
)

// Bagging trains Rounds trees on bootstrap replicates and predicts by
// majority vote.
type Bagging struct {
	Rounds int // zero means 10
	Tree   tree.Config
	Seed   int64
}

// BaggedModel is a trained bagging committee.
type BaggedModel struct {
	trees    []*tree.Tree
	nClasses int
}

// Train fits the committee.
func (b *Bagging) Train(t *dataset.Table) (*BaggedModel, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	if t.NumClasses() < 1 {
		return nil, ErrNoClass
	}
	rounds := b.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(b.Seed))
	m := &BaggedModel{nClasses: t.NumClasses()}
	n := t.NumRows()
	for r := 0; r < rounds; r++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tr, err := tree.Build(t.Subset(idx), b.Tree)
		if err != nil {
			return nil, err
		}
		m.trees = append(m.trees, tr)
	}
	return m, nil
}

// Predict returns the committee's majority vote.
func (m *BaggedModel) Predict(row []float64) int {
	votes := make([]int, m.nClasses)
	for _, tr := range m.trees {
		c := tr.Predict(row)
		if c >= 0 && c < len(votes) {
			votes[c]++
		}
	}
	best := 0
	for c, v := range votes {
		if v > votes[best] {
			best = c
		}
	}
	return best
}

// AdaBoost is AdaBoost.M1 over depth-limited trees.
type AdaBoost struct {
	Rounds int // zero means 20
	// MaxDepth limits the base trees (zero means 3 — shallow learners).
	MaxDepth int
	Seed     int64
}

// BoostedModel is a trained boosting committee: trees with log-odds
// weights.
type BoostedModel struct {
	trees    []*tree.Tree
	alphas   []float64
	nClasses int
}

// Train fits the committee.
func (a *AdaBoost) Train(t *dataset.Table) (*BoostedModel, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	if t.NumClasses() < 1 {
		return nil, ErrNoClass
	}
	rounds := a.Rounds
	if rounds <= 0 {
		rounds = 20
	}
	depth := a.MaxDepth
	if depth <= 0 {
		depth = 3
	}
	rng := rand.New(rand.NewSource(a.Seed))
	n := t.NumRows()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	m := &BoostedModel{nClasses: t.NumClasses()}
	for r := 0; r < rounds; r++ {
		idx := weightedBootstrap(rng, w)
		tr, err := tree.Build(t.Subset(idx), tree.Config{Criterion: tree.GainRatio, MaxDepth: depth, MinLeaf: 2})
		if err != nil {
			return nil, err
		}
		// Weighted error on the full training set.
		eps := 0.0
		wrong := make([]bool, n)
		for i, row := range t.Rows {
			if tr.Predict(row) != t.Class(i) {
				eps += w[i]
				wrong[i] = true
			}
		}
		if eps >= 0.5 {
			// Worse than chance on the weighted sample: reset weights and
			// retry with a fresh bootstrap (the M1 restart rule).
			for i := range w {
				w[i] = 1 / float64(n)
			}
			continue
		}
		if eps == 0 {
			// Perfect learner: give it a large, finite say and stop.
			m.trees = append(m.trees, tr)
			m.alphas = append(m.alphas, 10)
			break
		}
		beta := eps / (1 - eps)
		alpha := math.Log(1 / beta)
		m.trees = append(m.trees, tr)
		m.alphas = append(m.alphas, alpha)
		// Downweight correct examples, renormalise.
		total := 0.0
		for i := range w {
			if !wrong[i] {
				w[i] *= beta
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(m.trees) == 0 {
		return nil, errors.New("ensemble: boosting found no usable weak learner")
	}
	return m, nil
}

func weightedBootstrap(rng *rand.Rand, w []float64) []int {
	choose := stats.NewWeighted(w)
	idx := make([]int, len(w))
	for i := range idx {
		pick := choose.Choice(rng)
		if pick < 0 {
			pick = rng.Intn(len(w))
		}
		idx[i] = pick
	}
	return idx
}

// Predict returns the weighted vote.
func (m *BoostedModel) Predict(row []float64) int {
	votes := make([]float64, m.nClasses)
	for i, tr := range m.trees {
		c := tr.Predict(row)
		if c >= 0 && c < len(votes) {
			votes[c] += m.alphas[i]
		}
	}
	best := 0
	for c, v := range votes {
		if v > votes[best] {
			best = c
		}
	}
	return best
}
