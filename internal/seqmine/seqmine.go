// Package seqmine implements the two canonical sequential-pattern miners
// surveyed by the tutorial:
//
//   - AprioriAll (Agrawal & Srikant, ICDE'95 "Mining Sequential Patterns"):
//     a litemset phase, a transformation phase mapping each customer to
//     sequences of frequent-itemset ids, and a level-wise sequence phase;
//   - GSP (Srikant & Agrawal, EDBT'96 "Mining Sequential Patterns:
//     Generalizations and Performance Improvements"), which mines item-level
//     sequences directly and generates fewer candidates (6–20 % fewer than
//     AprioriAll's litemset and sequence phases together, on the quick S1
//     table).
//
// Both are level-wise: O(passes) scans over the customer sequences with
// candidate-containment tests per sequence, so candidate-set size is the
// cost driver the EXP-S1 comparison measures.
//
// A sequence is an ordered list of itemsets (one customer's transaction
// history). Sequence s is contained in t when every element of s is a
// subset of a distinct element of t in the same order. Support is counted
// per customer: a customer supports a pattern at most once.
package seqmine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/synth"
	"repro/internal/transactions"
)

// FromSynth converts the synthetic generator's customer sequences into
// miner input (the two packages share the same underlying representation).
func FromSynth(raw []synth.Sequence) []Sequence {
	out := make([]Sequence, len(raw))
	for i, s := range raw {
		out[i] = Sequence(s)
	}
	return out
}

// Sequence is an ordered list of itemsets.
type Sequence []transactions.Itemset

// Contains reports whether sub is a subsequence of s: each element of sub
// is a subset of a distinct element of s, preserving order. The greedy
// left-to-right match is correct because elements are matched independently.
func (s Sequence) Contains(sub Sequence) bool {
	i := 0
	for _, want := range sub {
		for i < len(s) && !s[i].ContainsAll(want) {
			i++
		}
		if i >= len(s) {
			return false
		}
		i++
	}
	return true
}

// Equal reports element-wise equality.
func (s Sequence) Equal(o Sequence) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !s[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical map key, e.g. "1,2|3".
func (s Sequence) Key() string {
	var sb strings.Builder
	for i, e := range s {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(e.Key())
	}
	return sb.String()
}

// String renders the sequence as "<{1, 2} {3}>".
func (s Sequence) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	for i, e := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte('>')
	return sb.String()
}

// Clone returns a deep copy.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, e := range s {
		out[i] = e.Clone()
	}
	return out
}

// SeqCount pairs a frequent sequence with its customer support.
type SeqCount struct {
	Seq   Sequence
	Count int
}

// PassStat records one level-wise pass.
type PassStat struct {
	K          int
	Candidates int
	Frequent   int
}

// Result is the output of a sequence miner.
type Result struct {
	MinCount     int
	NumCustomers int
	// Levels[k-1] holds the frequent k-sequences. For AprioriAll, k counts
	// elements (litemsets); for GSP, k counts items.
	Levels []([]SeqCount)
	Passes []PassStat

	idx map[string]int
}

// Errors shared by the miners.
var (
	ErrBadSupport = errors.New("seqmine: minimum support must be in (0, 1]")
	ErrEmptyData  = errors.New("seqmine: no customer sequences")
)

// Miner is the common interface of the sequence miners.
type Miner interface {
	Name() string
	Mine(data []Sequence, minSupport float64) (*Result, error)
}

// All returns every frequent sequence across levels.
func (r *Result) All() []SeqCount {
	var out []SeqCount
	for _, level := range r.Levels {
		out = append(out, level...)
	}
	return out
}

// NumFrequent returns the number of frequent sequences.
func (r *Result) NumFrequent() int {
	n := 0
	for _, level := range r.Levels {
		n += len(level)
	}
	return n
}

// Support returns the support of seq if frequent.
func (r *Result) Support(seq Sequence) (int, bool) {
	if r.idx == nil {
		r.idx = make(map[string]int, r.NumFrequent())
		for _, sc := range r.All() {
			r.idx[sc.Seq.Key()] = sc.Count
		}
	}
	c, ok := r.idx[seq.Key()]
	return c, ok
}

// Maximal returns the frequent sequences not contained in any longer
// frequent sequence — the answer set of the ICDE'95 problem statement.
func (r *Result) Maximal() []SeqCount {
	all := r.All()
	var out []SeqCount
	for i, sc := range all {
		maximal := true
		for j, other := range all {
			if i == j {
				continue
			}
			if len(other.Seq) >= len(sc.Seq) && !other.Seq.Equal(sc.Seq) && other.Seq.Contains(sc.Seq) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, sc)
		}
	}
	return out
}

func checkInput(data []Sequence, minSupport float64) (int, error) {
	if minSupport <= 0 || minSupport > 1 {
		return 0, fmt.Errorf("%w: %v", ErrBadSupport, minSupport)
	}
	if len(data) == 0 {
		return 0, ErrEmptyData
	}
	n := int(minSupport*float64(len(data)) + 0.999999999)
	if n < 1 {
		n = 1
	}
	return n, nil
}
