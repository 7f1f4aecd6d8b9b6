package dataset

// Encoder maps table rows to the numeric feature vectors that k-NN
// measures distances on and the neural net trains on. It drops the class
// column, min-max scales each numeric column by the range of the table
// it was fitted on (a missing value maps to the midpoint 0.5), and
// expands each categorical column into a one-hot block whose set entry
// is a weight the caller picks (a missing or out-of-range category
// leaves the block zero).
type Encoder struct {
	attrs    []Attribute
	classIdx int
	oneHot   float64
	mins     []float64
	ranges   []float64
}

// NewEncoder fits an Encoder on t. A numeric column's range ignores
// missing values; a constant column gets range 1, and an all-missing
// one minimum 0 and range 1. oneHot is the value a present category
// takes in its block.
func NewEncoder(t *Table, oneHot float64) *Encoder {
	e := &Encoder{
		attrs:    t.Attributes,
		classIdx: t.ClassIndex,
		oneHot:   oneHot,
		mins:     make([]float64, len(t.Attributes)),
		ranges:   make([]float64, len(t.Attributes)),
	}
	for j, a := range t.Attributes {
		e.ranges[j] = 1
		if j == t.ClassIndex || a.Kind != Numeric {
			continue
		}
		if min, max, ok := t.NumericRange(j); ok {
			e.mins[j] = min
			if max > min {
				e.ranges[j] = max - min
			}
		}
	}
	return e
}

// Encode returns row's feature vector: one entry per numeric column and
// one per category of each categorical column, in column order.
func (e *Encoder) Encode(row []float64) []float64 {
	var out []float64
	for j, a := range e.attrs {
		if j == e.classIdx {
			continue
		}
		v := row[j]
		if a.Kind == Numeric {
			if IsMissing(v) {
				out = append(out, 0.5)
			} else {
				out = append(out, (v-e.mins[j])/e.ranges[j])
			}
			continue
		}
		base := len(out)
		out = append(out, make([]float64, len(a.Values))...)
		if !IsMissing(v) {
			if idx := int(v); idx >= 0 && idx < len(a.Values) {
				out[base+idx] = e.oneHot
			}
		}
	}
	return out
}
