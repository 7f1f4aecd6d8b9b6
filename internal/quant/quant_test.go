package quant

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// ageTable builds a table where young people decisively buy product A.
func ageTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.New(
		dataset.NewNumericAttribute("age"),
		dataset.NewCategoricalAttribute("product", "A", "B"),
	)
	for i := 0; i < 40; i++ {
		age := 20 + float64(i%10)                                // young: 20..29
		if err := tbl.AppendRow([]float64{age, 0}); err != nil { // buys A
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		age := 60 + float64(i%10)                                // old: 60..69
		if err := tbl.AppendRow([]float64{age, 1}); err != nil { // buys B
			t.Fatal(err)
		}
	}
	return tbl
}

func TestEncodeBasics(t *testing.T) {
	tbl := ageTable(t)
	db, codec, err := Encode(tbl, Config{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != tbl.NumRows() {
		t.Fatalf("transactions = %d", db.Len())
	}
	if len(codec.Items) == 0 {
		t.Fatal("no items")
	}
	// Each transaction must include the product item and at least one
	// age-interval item.
	for i, tx := range db.Transactions {
		hasAge, hasProduct := false, false
		for _, id := range tx {
			if codec.Items[id].Attr == 0 {
				hasAge = true
			}
			if codec.Items[id].Attr == 1 {
				hasProduct = true
			}
		}
		if !hasAge || !hasProduct {
			t.Fatalf("tx %d missing attribute coverage: %v", i, tx)
		}
	}
}

func TestEncodeMaxSupportPrunesWideIntervals(t *testing.T) {
	tbl := ageTable(t)
	_, codec, err := Encode(tbl, Config{Bins: 4, MaxSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// No interval item may cover more than 30% of rows... verified via
	// the item bounds: the full range [20, 69] must not be an item.
	for _, it := range codec.Items {
		if it.Value >= 0 {
			continue
		}
		if it.Lo <= 20 && it.Hi >= 69 {
			t.Errorf("full-range interval survived: %+v", it)
		}
	}
}

func TestMineRecoversAgeProductRule(t *testing.T) {
	tbl := ageTable(t)
	rules, _, err := Mine(tbl, Config{Bins: 4}, 0.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules found")
	}
	// Some rule must link a young-age interval to product A.
	found := false
	for _, r := range rules {
		ante := strings.Join(r.Antecedent, ";")
		cons := strings.Join(r.Consequent, ";")
		if strings.Contains(ante, "age in") && strings.Contains(cons, "product = A") {
			found = true
			if r.Confidence < 0.9 {
				t.Errorf("rule below confidence: %s", r)
			}
		}
		// No rule may mention the same attribute on both sides or twice.
		all := append(append([]string(nil), r.Antecedent...), r.Consequent...)
		attrs := map[string]int{}
		for _, cond := range all {
			attrs[strings.Fields(cond)[0]]++
		}
		for a, n := range attrs {
			if n > 1 {
				t.Errorf("attribute %s used %d times in %s", a, n, r)
			}
		}
	}
	if !found {
		for _, r := range rules {
			t.Logf("rule: %s", r)
		}
		t.Error("expected an age => product A rule")
	}
}

func TestMineOnBenchmarkPeople(t *testing.T) {
	tbl, err := synth.Classify(synth.ClassifyConfig{NumRows: 600, Function: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rules, codec, err := Mine(tbl, Config{Bins: 4, MaxSupport: 0.6}, 0.1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(codec.Items) == 0 {
		t.Fatal("no items")
	}
	// F1 labels by age only, so among the confident rules there must be
	// one with an age condition implying a group value.
	found := false
	for _, r := range rules {
		if strings.Contains(strings.Join(r.Antecedent, ";"), "age in") &&
			strings.Contains(strings.Join(r.Consequent, ";"), "group =") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no age => group rule among %d rules", len(rules))
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, _, err := Encode(nil, Config{}); !errors.Is(err, ErrNoRows) {
		t.Errorf("nil error = %v", err)
	}
	empty := dataset.New(dataset.NewNumericAttribute("x"))
	if _, _, err := Encode(empty, Config{}); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty error = %v", err)
	}
	skipped := dataset.New(dataset.NewNumericAttribute("x"))
	if err := skipped.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Encode(skipped, Config{SkipColumns: []int{0}}); !errors.Is(err, ErrNoItems) {
		t.Errorf("all-skipped error = %v", err)
	}
}

func TestCodecDescribe(t *testing.T) {
	tbl := ageTable(t)
	_, codec, err := Encode(tbl, Config{Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := range codec.Items {
		d := codec.Describe(id)
		if !strings.Contains(d, "age") && !strings.Contains(d, "product") {
			t.Errorf("Describe(%d) = %q", id, d)
		}
	}
	if got := codec.Describe(-1); !strings.Contains(got, "item(") {
		t.Errorf("Describe(-1) = %q", got)
	}
}

func TestIntervalSupportMatchesRows(t *testing.T) {
	// The support of each interval item equals the number of rows whose
	// value falls inside the interval's bin run.
	tbl := ageTable(t)
	db, codec, err := Encode(tbl, Config{Bins: 4, MaxSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	colMax := 0.0
	for _, row := range tbl.Rows {
		if row[0] > colMax {
			colMax = row[0]
		}
	}
	for id, it := range codec.Items {
		if it.Value >= 0 || it.Attr != 0 {
			continue
		}
		// Interval semantics are half-open at the upper cut except for
		// the final bin, whose Hi is the inclusive column maximum.
		want := 0
		for _, row := range tbl.Rows {
			v := row[0]
			upperOK := v < it.Hi || (it.Hi >= colMax && v <= it.Hi)
			if v >= it.Lo && upperOK {
				want++
			}
		}
		if got := oracle.Support(db.Transactions, []int{id}); got != want {
			t.Errorf("item %d [%g,%g]: encoded %d, direct %d", id, it.Lo, it.Hi, got, want)
		}
	}
}
