// Package bayes implements the naive Bayes classifier over dataset.Table:
// Laplace-smoothed frequency estimates for categorical attributes and
// Gaussian class-conditional densities for numeric attributes, with missing
// values skipped per attribute (the standard treatment). Training is one
// O(rows·attributes) counting pass; prediction is O(attributes·classes).
package bayes

import (
	"errors"
	"math"

	"repro/internal/dataset"
)

// Errors returned by Train.
var (
	ErrNoClass = errors.New("bayes: table has no categorical class attribute")
	ErrNoRows  = errors.New("bayes: empty training table")
)

// Classifier is a trained naive Bayes model.
type Classifier struct {
	attrs    []dataset.Attribute
	classIdx int
	nClasses int

	logPrior []float64
	// catLogProb[j][c][v] = log P(attr j = v | class c) for categorical j.
	catLogProb map[int][][]float64
	// gauss[j][c] holds the class-conditional normal for numeric j.
	gauss map[int][]gaussian
}

type gaussian struct {
	mean, sd float64
	ok       bool // false when the class had no observed values
}

// Train fits the model.
func Train(t *dataset.Table) (*Classifier, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	nClasses := t.NumClasses()
	if nClasses < 1 {
		return nil, ErrNoClass
	}
	c := &Classifier{
		attrs:      t.Attributes,
		classIdx:   t.ClassIndex,
		nClasses:   nClasses,
		catLogProb: make(map[int][][]float64),
		gauss:      make(map[int][]gaussian),
	}
	classCounts := make([]float64, nClasses)
	for i := range t.Rows {
		classCounts[t.Class(i)]++
	}
	c.logPrior = make([]float64, nClasses)
	total := float64(t.NumRows())
	for cl, cnt := range classCounts {
		// Laplace-smoothed prior guards against empty classes.
		c.logPrior[cl] = math.Log((cnt + 1) / (total + float64(nClasses)))
	}

	for j, a := range t.Attributes {
		if j == t.ClassIndex {
			continue
		}
		if a.Kind == dataset.Categorical {
			nVals := len(a.Values)
			counts := make([][]float64, nClasses)
			for cl := range counts {
				counts[cl] = make([]float64, nVals)
			}
			seen := make([]float64, nClasses)
			for i, row := range t.Rows {
				v := row[j]
				if dataset.IsMissing(v) {
					continue
				}
				cl := t.Class(i)
				counts[cl][int(v)]++
				seen[cl]++
			}
			logp := make([][]float64, nClasses)
			for cl := range logp {
				logp[cl] = make([]float64, nVals)
				for v := 0; v < nVals; v++ {
					logp[cl][v] = math.Log((counts[cl][v] + 1) / (seen[cl] + float64(nVals)))
				}
			}
			c.catLogProb[j] = logp
		} else {
			gs := make([]gaussian, nClasses)
			sum := make([]float64, nClasses)
			sumSq := make([]float64, nClasses)
			n := make([]float64, nClasses)
			for i, row := range t.Rows {
				v := row[j]
				if dataset.IsMissing(v) {
					continue
				}
				cl := t.Class(i)
				sum[cl] += v
				sumSq[cl] += v * v
				n[cl]++
			}
			for cl := range gs {
				if n[cl] == 0 {
					continue
				}
				mean := sum[cl] / n[cl]
				variance := 0.0
				if n[cl] > 1 {
					variance = (sumSq[cl] - sum[cl]*sum[cl]/n[cl]) / (n[cl] - 1)
				}
				sd := math.Sqrt(variance)
				if sd < 1e-9 {
					sd = 1e-9 // degenerate spike; keeps the density finite
				}
				gs[cl] = gaussian{mean: mean, sd: sd, ok: true}
			}
			c.gauss[j] = gs
		}
	}
	return c, nil
}

// LogPosterior returns the unnormalised log posterior of every class for
// the row.
func (c *Classifier) LogPosterior(row []float64) []float64 {
	scores := append([]float64(nil), c.logPrior...)
	for j := range c.attrs {
		if j == c.classIdx {
			continue
		}
		v := row[j]
		if dataset.IsMissing(v) {
			continue
		}
		if logp, ok := c.catLogProb[j]; ok {
			vi := int(v)
			for cl := range scores {
				if vi >= 0 && vi < len(logp[cl]) {
					scores[cl] += logp[cl][vi]
				}
			}
			continue
		}
		gs := c.gauss[j]
		for cl := range scores {
			if !gs[cl].ok {
				continue
			}
			scores[cl] += logNormPDF(v, gs[cl].mean, gs[cl].sd)
		}
	}
	return scores
}

// Predict returns the most probable class for the row.
func (c *Classifier) Predict(row []float64) int {
	scores := c.LogPosterior(row)
	best := 0
	for cl, s := range scores {
		if s > scores[best] {
			best = cl
		}
	}
	return best
}

func logNormPDF(x, mean, sd float64) float64 {
	d := (x - mean) / sd
	return -0.5*d*d - math.Log(sd) - 0.5*math.Log(2*math.Pi)
}
