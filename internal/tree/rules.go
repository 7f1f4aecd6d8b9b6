package tree

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
)

// Condition is one test on a root-to-leaf path.
type Condition struct {
	Attr int
	// Op is "=", "<=" or ">".
	Op string
	// Value is the category index for "=", the threshold otherwise.
	Value float64
}

// Rule is a conjunctive classification rule read off one leaf, in the
// style of the tutorial's "rules extraction from tree diagram" workflows.
type Rule struct {
	Conditions []Condition
	Class      int
	// Support is the number of training rows at the leaf.
	Support int
	// Purity is the fraction of leaf rows in the predicted class; 1.0
	// marks a "pure subset" rule.
	Purity float64
}

// Pure reports whether the rule's leaf was 100% one class.
func (r Rule) Pure() bool { return r.Purity >= 1.0 }

// ExtractRules flattens the tree into one rule per leaf. Leaves with no
// training rows (empty branches) are skipped.
func (tr *Tree) ExtractRules() []Rule {
	var rules []Rule
	var walk func(n *Node, conds []Condition)
	walk = func(n *Node, conds []Condition) {
		if n.IsLeaf() {
			if n.N == 0 {
				return
			}
			purity := float64(n.ClassCounts[n.Class]) / float64(n.N)
			rules = append(rules, Rule{
				Conditions: append([]Condition(nil), conds...),
				Class:      n.Class,
				Support:    n.N,
				Purity:     purity,
			})
			return
		}
		for i, c := range n.Children {
			var cond Condition
			if tr.Attrs[n.Attr].Kind == dataset.Categorical {
				cond = Condition{Attr: n.Attr, Op: "=", Value: float64(i)}
			} else if i == 0 {
				cond = Condition{Attr: n.Attr, Op: "<=", Value: n.Threshold}
			} else {
				cond = Condition{Attr: n.Attr, Op: ">", Value: n.Threshold}
			}
			walk(c, append(conds, cond))
		}
	}
	walk(tr.Root, nil)
	return rules
}

// Format renders the rule with attribute and class names.
func (r Rule) Format(attrs []dataset.Attribute, class *dataset.Attribute) string {
	var sb strings.Builder
	sb.WriteString("IF ")
	if len(r.Conditions) == 0 {
		sb.WriteString("true")
	}
	for i, c := range r.Conditions {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		a := attrs[c.Attr]
		if c.Op == "=" && a.Kind == dataset.Categorical {
			fmt.Fprintf(&sb, "%s = %s", a.Name, a.Values[int(c.Value)])
		} else {
			fmt.Fprintf(&sb, "%s %s %g", a.Name, c.Op, c.Value)
		}
	}
	label := fmt.Sprintf("%d", r.Class)
	if class != nil && r.Class < len(class.Values) {
		label = class.Values[r.Class]
	}
	fmt.Fprintf(&sb, " THEN %s = %s (n=%d, purity=%.1f%%)",
		classNameOf(class), label, r.Support, r.Purity*100)
	return sb.String()
}

func classNameOf(class *dataset.Attribute) string {
	if class == nil {
		return "class"
	}
	return class.Name
}
