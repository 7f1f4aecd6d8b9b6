// Package dataset provides the tabular data substrate shared by the
// classification and clustering packages: typed attributes (numeric and
// categorical), instances, an in-memory Table, CSV I/O with schema
// inference, train/test splitting, equal-frequency discretization, and
// the feature Encoder that k-NN and the neural net share.
//
// A Table stores every cell as a float64. Numeric attributes store the value
// directly; categorical attributes store the index into the attribute's
// Values slice. Missing values are represented by NaN and are reported by
// IsMissing.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// AttributeKind distinguishes numeric from categorical attributes.
type AttributeKind int

const (
	// Numeric attributes hold real values.
	Numeric AttributeKind = iota
	// Categorical attributes hold an index into a finite value set.
	Categorical
)

// String returns the kind name.
func (k AttributeKind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("AttributeKind(%d)", int(k))
	}
}

// Attribute describes one column of a Table.
type Attribute struct {
	Name   string
	Kind   AttributeKind
	Values []string // category labels; nil for numeric attributes

	index map[string]int // lazy reverse lookup for Values
}

// NewNumericAttribute returns a numeric attribute with the given name.
func NewNumericAttribute(name string) Attribute {
	return Attribute{Name: name, Kind: Numeric}
}

// NewCategoricalAttribute returns a categorical attribute with the given
// ordered value set.
func NewCategoricalAttribute(name string, values ...string) Attribute {
	return Attribute{Name: name, Kind: Categorical, Values: append([]string(nil), values...)}
}

// ValueIndex returns the index of label in the attribute's value set, or -1
// if absent or the attribute is numeric.
func (a *Attribute) ValueIndex(label string) int {
	if a.Kind != Categorical {
		return -1
	}
	if a.index == nil || len(a.index) != len(a.Values) {
		a.index = make(map[string]int, len(a.Values))
		for i, v := range a.Values {
			a.index[v] = i
		}
	}
	if i, ok := a.index[label]; ok {
		return i
	}
	return -1
}

// AddValue appends label to a categorical attribute's value set if new, and
// returns its index.
func (a *Attribute) AddValue(label string) int {
	if i := a.ValueIndex(label); i >= 0 {
		return i
	}
	a.Values = append(a.Values, label)
	i := len(a.Values) - 1
	if a.index != nil {
		a.index[label] = i
	}
	return i
}

// Missing is the cell encoding of a missing value.
var Missing = math.NaN()

// IsMissing reports whether a cell value encodes a missing value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Errors returned by Table operations.
var (
	ErrNoClass       = errors.New("dataset: table has no class attribute")
	ErrColumnBounds  = errors.New("dataset: column index out of range")
	ErrRowWidth      = errors.New("dataset: row width does not match schema")
	ErrUnknownLabel  = errors.New("dataset: unknown categorical label")
	ErrEmptyTable    = errors.New("dataset: empty table")
	ErrBadProportion = errors.New("dataset: split proportion outside (0,1)")
)

// Table is an in-memory dataset: a schema plus rows of float64 cells.
// ClassIndex is the column index of the class attribute for supervised
// tasks, or -1 when there is none.
type Table struct {
	Attributes []Attribute
	Rows       [][]float64
	ClassIndex int
}

// New returns an empty table with the given schema and no class attribute.
func New(attrs ...Attribute) *Table {
	return &Table{Attributes: attrs, ClassIndex: -1}
}

// NumRows returns the number of instances.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumAttributes returns the number of columns.
func (t *Table) NumAttributes() int { return len(t.Attributes) }

// ClassAttribute returns the class attribute.
func (t *Table) ClassAttribute() (*Attribute, error) {
	if t.ClassIndex < 0 || t.ClassIndex >= len(t.Attributes) {
		return nil, ErrNoClass
	}
	return &t.Attributes[t.ClassIndex], nil
}

// NumClasses returns the number of class labels, or 0 when the table has no
// categorical class attribute.
func (t *Table) NumClasses() int {
	a, err := t.ClassAttribute()
	if err != nil || a.Kind != Categorical {
		return 0
	}
	return len(a.Values)
}

// Class returns the class index of row i.
func (t *Table) Class(i int) int {
	return int(t.Rows[i][t.ClassIndex])
}

// AppendRow adds a row after validating its width against the schema and
// that categorical cells are in range (or missing).
func (t *Table) AppendRow(row []float64) error {
	if len(row) != len(t.Attributes) {
		return fmt.Errorf("%w: got %d cells, want %d", ErrRowWidth, len(row), len(t.Attributes))
	}
	for j, v := range row {
		if IsMissing(v) {
			continue
		}
		a := &t.Attributes[j]
		if a.Kind == Categorical {
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= len(a.Values) {
				return fmt.Errorf("%w: column %q cell %v", ErrUnknownLabel, a.Name, v)
			}
		}
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Column returns a copy of column j's cells.
func (t *Table) Column(j int) ([]float64, error) {
	if j < 0 || j >= len(t.Attributes) {
		return nil, ErrColumnBounds
	}
	out := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[j]
	}
	return out, nil
}

// NumericRange returns the smallest and largest non-missing value of
// column j. When every cell is missing, ok is false and min and max are 0.
func (t *Table) NumericRange(j int) (min, max float64, ok bool) {
	for _, row := range t.Rows {
		v := row[j]
		if IsMissing(v) {
			continue
		}
		if !ok || v < min {
			min = v
		}
		if !ok || v > max {
			max = v
		}
		ok = true
	}
	return min, max, ok
}

// CellLabel renders the cell at (i, j) as a string: category label for
// categorical attributes, %g for numeric, "?" for missing.
func (t *Table) CellLabel(i, j int) string {
	v := t.Rows[i][j]
	if IsMissing(v) {
		return "?"
	}
	a := &t.Attributes[j]
	if a.Kind == Categorical {
		idx := int(v)
		if idx >= 0 && idx < len(a.Values) {
			return a.Values[idx]
		}
		return "?"
	}
	return fmt.Sprintf("%g", v)
}

// Subset returns a table sharing this table's schema and containing copies
// of the selected row indices.
func (t *Table) Subset(rowIdx []int) *Table {
	out := &Table{Attributes: t.Attributes, ClassIndex: t.ClassIndex}
	out.Rows = make([][]float64, 0, len(rowIdx))
	for _, i := range rowIdx {
		out.Rows = append(out.Rows, t.Rows[i])
	}
	return out
}

// Split partitions the table into two tables where the first receives
// proportion p of the rows (rounded down, but at least one row in each part
// when possible). Rows are taken in order; shuffle first for a random split.
func (t *Table) Split(p float64) (*Table, *Table, error) {
	if p <= 0 || p >= 1 {
		return nil, nil, ErrBadProportion
	}
	if len(t.Rows) < 2 {
		return nil, nil, ErrEmptyTable
	}
	n := int(p * float64(len(t.Rows)))
	if n == 0 {
		n = 1
	}
	if n == len(t.Rows) {
		n = len(t.Rows) - 1
	}
	first := make([]int, n)
	for i := range first {
		first[i] = i
	}
	second := make([]int, len(t.Rows)-n)
	for i := range second {
		second[i] = n + i
	}
	return t.Subset(first), t.Subset(second), nil
}

// ClassDistribution returns the count of each class label among the rows.
func (t *Table) ClassDistribution() ([]int, error) {
	if _, err := t.ClassAttribute(); err != nil {
		return nil, err
	}
	counts := make([]int, t.NumClasses())
	for i := range t.Rows {
		c := t.Class(i)
		if c >= 0 && c < len(counts) {
			counts[c]++
		}
	}
	return counts, nil
}

// MajorityClass returns the most frequent class index, breaking ties toward
// the lower index.
func (t *Table) MajorityClass() (int, error) {
	counts, err := t.ClassDistribution()
	if err != nil {
		return 0, err
	}
	if len(counts) == 0 {
		return 0, ErrNoClass
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best, nil
}
