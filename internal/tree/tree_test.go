package tree

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// weatherTable is the classic Quinlan play-tennis dataset.
func weatherTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.New(
		dataset.NewCategoricalAttribute("outlook", "sunny", "overcast", "rain"),
		dataset.NewNumericAttribute("temperature"),
		dataset.NewNumericAttribute("humidity"),
		dataset.NewCategoricalAttribute("windy", "false", "true"),
		dataset.NewCategoricalAttribute("play", "no", "yes"),
	)
	tbl.ClassIndex = 4
	rows := []string{
		"sunny,85,85,false,no",
		"sunny,80,90,true,no",
		"overcast,83,86,false,yes",
		"rain,70,96,false,yes",
		"rain,68,80,false,yes",
		"rain,65,70,true,no",
		"overcast,64,65,true,yes",
		"sunny,72,95,false,no",
		"sunny,69,70,false,yes",
		"rain,75,80,false,yes",
		"sunny,75,70,true,yes",
		"overcast,72,90,true,yes",
		"overcast,81,75,false,yes",
		"rain,71,91,true,no",
	}
	for _, r := range rows {
		row := make([]float64, len(tbl.Attributes))
		for j, cell := range strings.Split(r, ",") {
			a := tbl.Attributes[j]
			if a.Kind == dataset.Categorical {
				row[j] = float64(a.ValueIndex(cell))
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			row[j] = v
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// Leaves returns the number of leaf nodes.
func (tr *Tree) Leaves() int { return countLeaves(tr.Root) }

// Depth returns the maximum root-to-leaf depth (a lone leaf has depth 1).
func (tr *Tree) Depth() int { return depthOf(tr.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += countLeaves(c)
	}
	return total
}

func depthOf(n *Node) int {
	if n == nil {
		return 0
	}
	best := 0
	for _, c := range n.Children {
		if d := depthOf(c); d > best {
			best = d
		}
	}
	return best + 1
}

// Matches reports whether the row satisfies every condition of the rule.
// Missing values never match a condition.
func (r Rule) Matches(attrs []dataset.Attribute, row []float64) bool {
	for _, c := range r.Conditions {
		v := row[c.Attr]
		if dataset.IsMissing(v) {
			return false
		}
		switch c.Op {
		case "=":
			if v != c.Value {
				return false
			}
		case "<=":
			if !(v <= c.Value) {
				return false
			}
		case ">":
			if !(v > c.Value) {
				return false
			}
		}
	}
	return true
}

func TestBuildWeatherPerfectOnTraining(t *testing.T) {
	for _, crit := range []Criterion{InfoGain, GainRatio, Gini} {
		tbl := weatherTable(t)
		tr, err := Build(tbl, Config{Criterion: crit})
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		for i, row := range tbl.Rows {
			if got := tr.Predict(row); got != tbl.Class(i) {
				t.Errorf("%v: row %d predicted %d, want %d", crit, i, got, tbl.Class(i))
			}
		}
	}
}

func TestWeatherRootIsOutlook(t *testing.T) {
	// The textbook result: outlook is the best first split by info gain.
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{Criterion: InfoGain})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.IsLeaf() {
		t.Fatal("root is a leaf")
	}
	if name := tbl.Attributes[tr.Root.Attr].Name; name != "outlook" {
		t.Errorf("root attribute = %s, want outlook", name)
	}
	// The overcast branch is pure "yes".
	overcast := tr.Root.Children[1]
	if !overcast.IsLeaf() || overcast.Class != 1 {
		t.Errorf("overcast branch should be a pure yes leaf: %+v", overcast)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Config{}); !errors.Is(err, ErrNoRows) {
		t.Errorf("nil table error = %v", err)
	}
	empty := dataset.New(dataset.NewNumericAttribute("x"))
	if _, err := Build(empty, Config{}); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty error = %v", err)
	}
	noClass := dataset.New(dataset.NewNumericAttribute("x"))
	if err := noClass.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(noClass, Config{}); !errors.Is(err, ErrNoClass) {
		t.Errorf("no class error = %v", err)
	}
	tbl := weatherTable(t)
	if _, err := Build(tbl, Config{MinLeaf: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad config error = %v", err)
	}
}

func TestMaxDepth(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 2 { // root split + leaves
		t.Errorf("depth = %d with MaxDepth 1", tr.Depth())
	}
}

func TestMinLeaf(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{MinLeaf: 6})
	if err != nil {
		t.Fatal(err)
	}
	var check func(n *Node)
	check = func(n *Node) {
		if n.IsLeaf() {
			if n.N > 0 && n.N < 6 {
				t.Errorf("leaf with %d rows under MinLeaf 6", n.N)
			}
			return
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(tr.Root)
}

func TestHighAccuracyOnSyntheticFunctions(t *testing.T) {
	// The tree should learn the axis-parallel benchmark functions well.
	for _, fn := range []int{1, 2, 3} {
		train, err := synth.Classify(synth.ClassifyConfig{NumRows: 2000, Function: fn, Seed: 100})
		if err != nil {
			t.Fatal(err)
		}
		test, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: fn, Seed: 200})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Build(train, Config{Criterion: GainRatio, MinLeaf: 5})
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i, row := range test.Rows {
			if tr.Predict(row) == test.Class(i) {
				correct++
			}
		}
		acc := float64(correct) / float64(test.NumRows())
		if acc < 0.9 {
			t.Errorf("F%d: accuracy = %v, want >= 0.9", fn, acc)
		}
	}
}

func TestPredictMissingGoesMajority(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{dataset.Missing, dataset.Missing, dataset.Missing, dataset.Missing, 0}
	got := tr.Predict(row)
	if got != 0 && got != 1 {
		t.Errorf("missing row predicted %d", got)
	}
}

func TestPessimisticPruningShrinksNoisyTree(t *testing.T) {
	train, err := synth.Classify(synth.ClassifyConfig{NumRows: 2000, Function: 2, Noise: 0.15, Seed: 300})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Classify(synth.ClassifyConfig{NumRows: 1000, Function: 2, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(train, Config{Criterion: GainRatio})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Size()
	accBefore := accuracy(tr, test)
	tr.PrunePessimistic(0.25)
	after := tr.Size()
	accAfter := accuracy(tr, test)
	if after >= before {
		t.Errorf("pruning did not shrink the tree: %d -> %d", before, after)
	}
	if accAfter < accBefore-0.02 {
		t.Errorf("pruning hurt holdout accuracy: %v -> %v", accBefore, accAfter)
	}
}

func TestReducedErrorPruning(t *testing.T) {
	full, err := synth.Classify(synth.ClassifyConfig{NumRows: 3000, Function: 5, Noise: 0.15, Seed: 400})
	if err != nil {
		t.Fatal(err)
	}
	train, hold, err := full.Split(2.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(train, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Size()
	holdBefore := accuracy(tr, hold)
	if err := tr.PruneReducedError(hold); err != nil {
		t.Fatal(err)
	}
	if tr.Size() >= before {
		t.Errorf("reduced-error pruning did not shrink: %d -> %d", before, tr.Size())
	}
	holdAfter := accuracy(tr, hold)
	if holdAfter < holdBefore {
		t.Errorf("reduced-error pruning must not hurt holdout accuracy: %v -> %v", holdBefore, holdAfter)
	}
	if err := tr.PruneReducedError(nil); !errors.Is(err, ErrNoHoldout) {
		t.Errorf("nil holdout error = %v", err)
	}
}

func accuracy(tr *Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i, row := range tbl.Rows {
		if tr.Predict(row) == tbl.Class(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRows())
}

func TestSizeLeavesDepth(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() < 3 {
		t.Errorf("Size = %d", tr.Size())
	}
	if tr.Leaves() >= tr.Size() {
		t.Errorf("Leaves %d >= Size %d", tr.Leaves(), tr.Size())
	}
	if tr.Depth() < 2 {
		t.Errorf("Depth = %d", tr.Depth())
	}
}

func TestStringRendering(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.String()
	if !strings.Contains(s, "outlook") {
		t.Errorf("rendering missing root attribute:\n%s", s)
	}
	if !strings.Contains(s, "yes") {
		t.Errorf("rendering missing class label:\n%s", s)
	}
}

func TestExtractRules(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rules := tr.ExtractRules()
	if len(rules) != tr.Leaves() {
		// Empty branches are dropped, so rules may be fewer, never more.
		if len(rules) > tr.Leaves() {
			t.Fatalf("rules = %d > leaves = %d", len(rules), tr.Leaves())
		}
	}
	// Every training row must match exactly one rule, and that rule must
	// predict the tree's output.
	for i, row := range tbl.Rows {
		matched := 0
		for _, r := range rules {
			if r.Matches(tbl.Attributes, row) {
				matched++
				if r.Class != tr.Predict(row) {
					t.Errorf("row %d: rule class %d != tree prediction %d", i, r.Class, tr.Predict(row))
				}
			}
		}
		if matched != 1 {
			t.Errorf("row %d matched %d rules, want 1", i, matched)
		}
	}
	// Training-pure tree: every rule has purity 1.
	for _, r := range rules {
		if !r.Pure() {
			t.Errorf("unpruned pure tree produced impure rule: %+v", r)
		}
	}
}

func TestRuleFormat(t *testing.T) {
	tbl := weatherTable(t)
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	classAttr, err := tbl.ClassAttribute()
	if err != nil {
		t.Fatal(err)
	}
	rules := tr.ExtractRules()
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	s := rules[0].Format(tbl.Attributes, classAttr)
	if !strings.Contains(s, "IF ") || !strings.Contains(s, " THEN play = ") {
		t.Errorf("Format = %q", s)
	}
}

func TestCriterionString(t *testing.T) {
	if InfoGain.String() != "infogain" || GainRatio.String() != "gainratio" || Gini.String() != "gini" {
		t.Error("criterion names")
	}
	if Criterion(9).String() != "Criterion(9)" {
		t.Error("unknown criterion name")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct{ p, want float64 }{
		{0.5, 0},
		{0.75, 0.6745},
		{0.975, 1.9600},
		{0.25, -0.6745},
	}
	for _, tt := range tests {
		got := normalQuantile(tt.p)
		if diff := got - tt.want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestMissingValuesInTraining(t *testing.T) {
	tbl := weatherTable(t)
	// Knock out some cells; training must still work.
	tbl.Rows[0][0] = dataset.Missing
	tbl.Rows[1][2] = dataset.Missing
	tbl.Rows[5][1] = dataset.Missing
	tr, err := Build(tbl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() < 1 {
		t.Error("degenerate tree")
	}
	for _, row := range tbl.Rows {
		c := tr.Predict(row)
		if c < 0 || c > 1 {
			t.Errorf("prediction out of range: %d", c)
		}
	}
}
