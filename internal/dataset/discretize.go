package dataset

import (
	"errors"
	"fmt"
	"sort"
)

// Discretizer maps a numeric column to bin indices. It is fitted on one
// table and can then be applied to another with the same schema, so the
// test fold never leaks into bin boundaries.
type Discretizer struct {
	Column int
	// Cuts are the ascending interior cut points; value v falls in bin i
	// where i is the number of cuts <= v.
	Cuts []float64
}

// ErrBadBins is returned when a discretizer is requested with fewer than
// two bins.
var ErrBadBins = errors.New("dataset: need at least two bins")

// FitEqualFrequency fits an equal-frequency discretizer on column j of t.
// Duplicate cut points are collapsed, so fewer than bins bins may result on
// highly repeated data.
func FitEqualFrequency(t *Table, j, bins int) (*Discretizer, error) {
	if bins < 2 {
		return nil, ErrBadBins
	}
	col, err := t.Column(j)
	if err != nil {
		return nil, err
	}
	if t.Attributes[j].Kind != Numeric {
		return nil, fmt.Errorf("dataset: column %q is not numeric", t.Attributes[j].Name)
	}
	vals := make([]float64, 0, len(col))
	for _, v := range col {
		if !IsMissing(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, ErrEmptyTable
	}
	sort.Float64s(vals)
	cuts := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		idx := i * len(vals) / bins
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		c := vals[idx]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return &Discretizer{Column: j, Cuts: cuts}, nil
}

// Bin returns the bin index for value v: the count of cuts <= v, so bins
// are [-inf,c0), [c0,c1), ..., [ck,+inf). Missing values return -1.
func (d *Discretizer) Bin(v float64) int {
	if IsMissing(v) {
		return -1
	}
	return sort.SearchFloat64s(d.Cuts, v+tinyEps)
}

// tinyEps nudges boundary values into the upper bin so that Bin(cut) lands
// in the bin that starts at cut, matching the half-open interval semantics.
const tinyEps = 1e-12

// NumBins returns the number of bins the discretizer produces.
func (d *Discretizer) NumBins() int { return len(d.Cuts) + 1 }
