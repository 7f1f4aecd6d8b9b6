package assoc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// Rule is an association rule Antecedent => Consequent with its quality
// measures, the form the tests have GenerateRules write and compare with
// the oracle's enumeration.
type Rule struct {
	Antecedent transactions.Itemset
	Consequent transactions.Itemset
	Support    int
	Confidence float64
	Lift       float64
}

// newRule is the constructor the tests hand GenerateRules.
func newRule(ante, cons transactions.Itemset, support int, conf, lift float64) Rule {
	return Rule{Antecedent: ante, Consequent: cons, Support: support, Confidence: conf, Lift: lift}
}

// compareRules is the published rule order over written rules, the
// reference the record sort is checked against: confidence descending,
// then support descending, then antecedent and consequent order.
func compareRules(a, b Rule) int {
	if a.Confidence != b.Confidence {
		if a.Confidence > b.Confidence {
			return -1
		}
		return 1
	}
	if a.Support != b.Support {
		if a.Support > b.Support {
			return -1
		}
		return 1
	}
	if c := a.Antecedent.Compare(b.Antecedent); c != 0 {
		return c
	}
	return a.Consequent.Compare(b.Consequent)
}

// String renders the rule as "{a} => {b} (sup=…, conf=…, lift=…)": the
// form the tests pin rule lists in and print them with.
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup=%d, conf=%.3f, lift=%.3f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

func minedPaper(t *testing.T) *Result {
	t.Helper()
	res, err := (&Apriori{}).Mine(paperDB(t), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateRulesKnownValues(t *testing.T) {
	res := minedPaper(t)
	rules, err := GenerateRules(res, 0.9, newRule)
	if err != nil {
		t.Fatal(err)
	}
	// From {2,5} sup 3: 2=>5 conf 3/3=1.0; 5=>2 conf 3/3=1.0.
	// From {2,3,5} sup 2: 3=>2,5? support(3)=3 conf 2/3 <0.9 excluded;
	// {2,3}=>5 conf 2/2=1.0; {3,5}=>2 conf 2/2=1.0; {2,5}=>3 conf 2/3 no.
	// From {1,3}: 1=>3 conf 2/2=1.0; 3=>1 conf 2/3 no.
	// From {2,3}: 2=>3 conf 2/3; 3=>2 conf 2/3 no. {3,5}: both 2/3 no.
	want := map[string]bool{
		"{2} => {5}":    true,
		"{5} => {2}":    true,
		"{1} => {3}":    true,
		"{2, 3} => {5}": true,
		"{3, 5} => {2}": true,
	}
	if len(rules) != len(want) {
		var got []string
		for _, r := range rules {
			got = append(got, r.String())
		}
		t.Fatalf("rules = %v, want %d", got, len(want))
	}
	for _, r := range rules {
		key := r.Antecedent.String() + " => " + r.Consequent.String()
		if !want[key] {
			t.Errorf("unexpected rule %s", r)
		}
		if r.Confidence < 0.9 {
			t.Errorf("rule %s below min confidence", r)
		}
	}
}

func TestRuleLift(t *testing.T) {
	res := minedPaper(t)
	rules, err := GenerateRules(res, 0.9, newRule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Antecedent.String() == "{2}" && r.Consequent.String() == "{5}" {
			// conf 1.0, support(5)/N = 3/4 => lift 4/3.
			if math.Abs(r.Lift-4.0/3.0) > 1e-12 {
				t.Errorf("lift = %v, want 4/3", r.Lift)
			}
			return
		}
	}
	t.Fatal("rule {2}=>{5} not found")
}

func TestGenerateRulesSortedByConfidence(t *testing.T) {
	res := minedPaper(t)
	rules, err := GenerateRules(res, 0.1, newRule)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Fatalf("rules not sorted at %d", i)
		}
	}
}

func TestGenerateRulesConfidenceCorrect(t *testing.T) {
	// Every emitted rule's confidence must equal sup(union)/sup(antecedent)
	// counted from scratch by the oracle.
	db, err := synth.Baskets(synth.TxI(6, 2, 200, 61))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Apriori{}).Mine(db, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(res, 0.4, newRule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		union := r.Antecedent.Union(r.Consequent)
		wantSup := oracle.Support(db.Transactions, union)
		if r.Support != wantSup {
			t.Errorf("rule %s support = %d, want %d", r, r.Support, wantSup)
		}
		anteSup := oracle.Support(db.Transactions, r.Antecedent)
		wantConf := float64(wantSup) / float64(anteSup)
		if math.Abs(r.Confidence-wantConf) > 1e-12 {
			t.Errorf("rule %s confidence = %v, want %v", r, r.Confidence, wantConf)
		}
		if r.Confidence < 0.4 {
			t.Errorf("rule %s below threshold", r)
		}
	}
}

// TestGenerateRulesComplete cross-checks the paper example's rules at
// confidence 0.5 against the oracle's enumeration of every split of
// every frequent itemset.
func TestGenerateRulesComplete(t *testing.T) {
	rules, err := GenerateRules(minedPaper(t), 0.5, newRule)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRules(oracle.Frequent(paperDB(t).Transactions, 0.5), 0.5); !reflect.DeepEqual(rules, want) {
		t.Errorf("rules:\n got %v\nwant %v", rules, want)
	}
}

func TestGenerateRulesValidation(t *testing.T) {
	res := minedPaper(t)
	if _, err := GenerateRules(res, 0, newRule); !errors.Is(err, ErrBadConfidence) {
		t.Errorf("conf 0 error = %v", err)
	}
	if _, err := GenerateRules(res, 1.1, newRule); !errors.Is(err, ErrBadConfidence) {
		t.Errorf("conf 1.1 error = %v", err)
	}
	if _, err := GenerateRules(nil, 0.5, newRule); !errors.Is(err, ErrEmptyDB) {
		t.Errorf("nil result error = %v", err)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: transactions.NewItemset(1),
		Consequent: transactions.NewItemset(2),
		Support:    3, Confidence: 0.75, Lift: 1.5,
	}
	s := r.String()
	for _, frag := range []string{"{1}", "{2}", "sup=3", "conf=0.750", "lift=1.500"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestSplit(t *testing.T) {
	a := transactions.NewItemset(1, 2, 3, 4)
	out, in := split(a, 0b1010, nil, nil)
	if !out.Equal(transactions.NewItemset(1, 3)) || !in.Equal(transactions.NewItemset(2, 4)) {
		t.Errorf("split(%v, 0b1010) = %v, %v", a, out, in)
	}
	if out, in := split(a, 0, nil, nil); !out.Equal(a) || len(in) != 0 {
		t.Errorf("split(%v, 0) = %v, %v", a, out, in)
	}
}

// TestGenerateRulesZeroSupportAntecedent pins the divide-by-zero guard: a
// (hand-built) Result carrying zero-support itemsets must produce no rules
// from them — confidence over a zero-support antecedent is undefined, not
// +Inf — and must not panic.
func TestGenerateRulesZeroSupportAntecedent(t *testing.T) {
	res := &Result{
		MinCount: 0,
		NumTx:    4,
		Levels: [][]ItemsetCount{
			{
				{Items: transactions.NewItemset(1), Count: 0},
				{Items: transactions.NewItemset(2), Count: 2},
			},
			{
				{Items: transactions.NewItemset(1, 2), Count: 0},
			},
		},
	}
	rules, err := GenerateRules(res, 0.01, newRule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Antecedent.Equal(transactions.NewItemset(1)) {
			t.Errorf("rule with zero-support antecedent emitted: %v", r)
		}
		if r.Confidence != r.Confidence || r.Confidence > 1e9 { // NaN or Inf
			t.Errorf("rule confidence degenerate: %v", r)
		}
	}
	// An itemset whose antecedent is missing from the Result entirely is
	// skipped the same way.
	res2 := &Result{
		NumTx: 4,
		Levels: [][]ItemsetCount{
			{{Items: transactions.NewItemset(2), Count: 2}},
			{{Items: transactions.NewItemset(1, 2), Count: 2}},
		},
	}
	rules2, err := GenerateRules(res2, 0.01, newRule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules2 {
		if r.Antecedent.Equal(transactions.NewItemset(1)) {
			t.Errorf("rule with untracked antecedent emitted: %v", r)
		}
	}
}

// TestCanonicalStableOnSupportTies pins Canonical's ordering when itemsets
// tie on support: levels sort lexicographically (support plays no part),
// so every engine and every repetition emits identical bytes.
func TestCanonicalStableOnSupportTies(t *testing.T) {
	// Four items in two tied pairs: {0,1} and {2,3} each appear together
	// three times, singles all tie at 3.
	db := transactions.NewDB()
	for i := 0; i < 3; i++ {
		if err := db.Add(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(2, 3); err != nil {
			t.Fatal(err)
		}
	}
	var canon string
	for _, m := range []Miner{&Apriori{}, &Eclat{}, &FPGrowth{}} {
		var prev string
		for rep := 0; rep < 3; rep++ {
			res, err := m.Mine(db, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got := string(res.Canonical())
			if rep > 0 && got != prev {
				t.Fatalf("%s: Canonical unstable across repetitions", m.Name())
			}
			prev = got
		}
		if canon == "" {
			canon = prev
		} else if prev != canon {
			t.Fatalf("%s: Canonical diverges across engines on tied supports\n got %q\nwant %q",
				m.Name(), prev, canon)
		}
	}
	want := "0:3\n1:3\n2:3\n3:3\n0,1:3\n2,3:3\n"
	if canon != want {
		t.Fatalf("Canonical = %q, want %q", canon, want)
	}
}

// TestRuleOrderStableOnTies pins the rule sort's total order: confidence
// and support ties fall through to antecedent/consequent comparison, so
// repeated generation yields the identical slice.
func TestRuleOrderStableOnTies(t *testing.T) {
	db := transactions.NewDB()
	for i := 0; i < 4; i++ {
		if err := db.Add(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(2, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := (&Apriori{}).Mine(db, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := GenerateRules(res, 0.5, newRule)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("expected tied rules")
	}
	for rep := 0; rep < 5; rep++ {
		again, err := GenerateRules(res, 0.5, newRule)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("rule count changed: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if again[i].String() != first[i].String() {
				t.Fatalf("rule order unstable at %d: %v vs %v", i, again[i], first[i])
			}
		}
	}
}

// TestRuleSortTieBreak pins the tie-break of the rule sort: rules that
// tie on confidence and support — here most of them, across antecedent
// sizes — come out in antecedent, then consequent order, exactly the
// order compareRules gives.
func TestRuleSortTieBreak(t *testing.T) {
	rules, err := GenerateRules(tieBreakResult(), 0.5, newRule)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{5} => {4} (sup=3, conf=1.000, lift=1.000)",
		"{1} => {2} (sup=2, conf=1.000, lift=2.000)",
		"{1} => {2, 3} (sup=2, conf=1.000, lift=2.000)",
		"{1} => {3} (sup=2, conf=1.000, lift=2.000)",
		"{1} => {4} (sup=2, conf=1.000, lift=1.000)",
		"{1, 2} => {3} (sup=2, conf=1.000, lift=2.000)",
		"{1, 3} => {2} (sup=2, conf=1.000, lift=2.000)",
		"{2} => {1} (sup=2, conf=1.000, lift=2.000)",
		"{2} => {1, 3} (sup=2, conf=1.000, lift=2.000)",
		"{2} => {3} (sup=2, conf=1.000, lift=2.000)",
		"{2, 3} => {1} (sup=2, conf=1.000, lift=2.000)",
		"{3} => {1} (sup=2, conf=1.000, lift=2.000)",
		"{3} => {1, 2} (sup=2, conf=1.000, lift=2.000)",
		"{3} => {2} (sup=2, conf=1.000, lift=2.000)",
		"{4} => {5} (sup=3, conf=0.750, lift=1.000)",
		"{4} => {1} (sup=2, conf=0.500, lift=1.000)",
	}
	got := make([]string, len(rules))
	for i, r := range rules {
		got[i] = r.String()
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rule order:\n got %q\nwant %q", got, want)
	}
}

// tieBreakResult is TestRuleSortTieBreak's hand-built frequent set: most
// of its rules tie on confidence and support.
func tieBreakResult() *Result {
	set := func(count int, items ...int) ItemsetCount {
		return ItemsetCount{Items: transactions.NewItemset(items...), Count: count}
	}
	return &Result{
		NumTx: 4,
		Levels: [][]ItemsetCount{
			{set(2, 1), set(2, 2), set(2, 3), set(4, 4), set(3, 5)},
			{set(2, 1, 2), set(2, 1, 3), set(2, 1, 4), set(2, 2, 3), set(3, 4, 5)},
			{set(2, 1, 2, 3)},
		},
	}
}

// TestSortRecordsMatchesCompareRules sorts shuffled copies of a rule
// set's records with sortRecs and checks the rules written from them
// against a stable comparator sort of the same rules written in
// generation order: the same rules, field for field, in the same order.
// Every fixture holds rules that tie on confidence and support and share
// an antecedent, so the consequent decides their order; in the blocks
// fixture over a thousand rules share confidence 1.0, a bucket far past
// the cut-off that only g.compare can order.
func TestSortRecordsMatchesCompareRules(t *testing.T) {
	longest := 0
	for name, res := range map[string]*Result{"kernel": kernelResult(t), "tie-break": tieBreakResult(), "blocks": blocksResult(t)} {
		g, err := newRuleGen(res, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		g.collect()
		want := writeRules(g, newRule)
		slices.SortStableFunc(want, compareRules)
		ties, run := 0, 1
		for i := 1; i < len(want); i++ {
			a, b := want[i-1], want[i]
			if a.Confidence == b.Confidence && a.Support == b.Support && a.Antecedent.Equal(b.Antecedent) {
				ties++
			}
			if a.Confidence == b.Confidence {
				run++
			} else {
				run = 1
			}
			longest = max(longest, run)
		}
		if ties == 0 {
			t.Fatalf("%s: no two rules tie on confidence, support and antecedent", name)
		}
		rng := rand.New(rand.NewSource(7))
		for rep := 0; rep < 5; rep++ {
			rng.Shuffle(len(g.recs), func(i, j int) { g.recs[i], g.recs[j] = g.recs[j], g.recs[i] })
			g.sortRecs(g.recs, 56)
			if got := writeRules(g, newRule); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, rep %d: the record sort of a shuffled copy differs from the comparator sort", name, rep)
			}
		}
	}
	if longest <= recCutoff {
		t.Fatalf("the longest run of equal confidences is %d rules, want past the cut-off %d", longest, recCutoff)
	}
}

// blocksResult mines eight disjoint blocks of five items. The first four
// blocks always occur whole, ten times each, so each of their 180 rules
// has confidence 1.0 and support 10; in the other four, each transaction
// drops one item of its block now and then, which spreads their
// confidences out.
func blocksResult(t *testing.T) *Result {
	t.Helper()
	db := transactions.NewDB()
	for tx := 0; tx < 40+4*35; tx++ {
		block := tx % 8
		items := []int{5 * block, 5*block + 1, 5*block + 2, 5*block + 3, 5*block + 4}
		if drop := (tx / 8) % 7; block >= 4 && drop < 5 {
			items = slices.Delete(items, drop, drop+1)
		}
		if tx >= 80 && block < 4 {
			continue // the whole blocks stop at ten transactions each
		}
		if err := db.Add(items...); err != nil {
			t.Fatal(err)
		}
	}
	res, err := (&Apriori{}).Mine(db, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSortRecsAdversarial checks sortRecs against slices.SortFunc with
// g.compare on records whose confidences stress each of its paths: all
// equal (at 1.0), two values, values that differ only in their lowest
// byte or only in one middle byte, a random mix, and a set below the
// cut-off.
func TestSortRecsAdversarial(t *testing.T) {
	g := pairGen(t)
	rng := rand.New(rand.NewSource(50))
	base := math.Float64bits(0.7)
	for name, conf := range map[string]func() float64{
		"all 1.0":     func() float64 { return 1 },
		"two values":  func() float64 { return []float64{0.5, 1}[rng.Intn(2)] },
		"lowest byte": func() float64 { return math.Float64frombits(base&^0xff | uint64(rng.Intn(4))) },
		"middle byte": func() float64 { return math.Float64frombits(base&^(0xff<<24) | uint64(rng.Intn(256))<<24) },
		"mix": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 1
			case 1:
				return []float64{0.5, 0.75, 2.0 / 3}[rng.Intn(3)]
			}
			return 0.3 + 0.7*rng.Float64()
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{recCutoff / 2, 3000} {
				confs := make([]float64, n)
				for i := range confs {
					confs[i] = conf()
				}
				checkSortRecs(t, g, confs)
			}
		})
	}
}

// FuzzSortRecs checks sortRecs against slices.SortFunc with g.compare.
// Four bytes of data make one record: the first picks confidence 1.0 or
// which byte of the confidence bits the second sets, the third sets the
// lowest byte; so the records' keys tie, or differ in one or two bytes.
func FuzzSortRecs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 9, 9})
	f.Add(make([]byte, 4*100))
	g := pairGen(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		confs := make([]float64, min(len(data)/4, 2*len(g.res.Levels[1])))
		for i := range confs {
			b := data[4*i : 4*i+4]
			if b[0]&3 == 0 {
				confs[i] = 1
				continue
			}
			bits := math.Float64bits(0.5) | uint64(b[1])<<(8*uint(b[0]>>2%6)) | uint64(b[2])
			confs[i] = math.Float64frombits(bits)
		}
		checkSortRecs(t, g, confs)
	})
}

// pairGen is a rule generator over every pair of 80 items, their counts
// drawn from three values so that supports tie often.
func pairGen(t testing.TB) *ruleGen {
	t.Helper()
	res := &Result{NumTx: 10}
	var singles, pairs []ItemsetCount
	for a := 0; a < 80; a++ {
		singles = append(singles, ItemsetCount{Items: transactions.NewItemset(a), Count: 5})
		for b := a + 1; b < 80; b++ {
			pairs = append(pairs, ItemsetCount{Items: transactions.NewItemset(a, b), Count: 1 + (a+b)%3})
		}
	}
	res.Levels = [][]ItemsetCount{singles, pairs}
	g, err := newRuleGen(res, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkSortRecs gives record i confidence confs[i], pair i/2 and the
// consequent at position i%2 of it, so no two records name one rule and
// g.compare orders them totally, and checks that sortRecs puts them in
// the order slices.SortFunc with g.compare gives.
func checkSortRecs(t *testing.T, g *ruleGen, confs []float64) {
	t.Helper()
	recs := make([]ruleRec, len(confs))
	for i, c := range confs {
		recs[i] = ruleRec{conf: c, sup: int32(g.res.Levels[1][i/2].Count), ref: int32(i / 2), mask: 1 << (i % 2)}
	}
	want := slices.Clone(recs)
	slices.SortFunc(want, g.compare)
	g.sortRecs(recs, 56)
	if !slices.Equal(recs, want) {
		t.Fatalf("%d records: sortRecs order differs from the comparator sort", len(recs))
	}
}

// TestRuleSupportByFirstItem checks the first-item lookup against
// Result.Support for every proper subset of every itemset, and for probes
// past the tables' last item, on results with the tables' edge cases:
// itemsets whose first item is past L1's largest item, a level with no
// itemsets, and the kernel fixture.
func TestRuleSupportByFirstItem(t *testing.T) {
	set := func(count int, items ...int) ItemsetCount {
		return ItemsetCount{Items: transactions.NewItemset(items...), Count: count}
	}
	pastL1 := &Result{
		NumTx: 8,
		Levels: [][]ItemsetCount{
			{set(4, 1), set(4, 2)},
			{set(3, 1, 2), set(2, 7, 8)},
			{set(2, 7, 8, 9)},
		},
	}
	noPairs := &Result{
		NumTx:  4,
		Levels: [][]ItemsetCount{{set(2, 1), set(2, 2), set(2, 3)}, nil, {set(2, 1, 2, 3)}},
	}
	for name, res := range map[string]*Result{"past L1": pastL1, "no pairs": noPairs, "kernel": kernelResult(t)} {
		g, err := newRuleGen(res, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		probes := []transactions.Itemset{{g.width - 1, g.width}, {g.width + 5}, {0, g.width + 5}}
		for _, level := range res.Levels[1:] {
			for _, ic := range level {
				for mask := uint64(1); mask < 1<<len(ic.Items)-1; mask++ {
					sub, _ := split(ic.Items, mask, nil, nil)
					probes = append(probes, sub)
				}
			}
		}
		for _, s := range probes {
			if len(s) >= len(res.Levels) {
				continue
			}
			if want, _ := res.Support(s); g.support(s) != want {
				t.Fatalf("%s: support(%v) = %d, Result.Support says %d", name, s, g.support(s), want)
			}
		}
	}
	rules, err := GenerateRules(pastL1, 0.5, newRule)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rules))
	for i, r := range rules {
		got[i] = r.String()
	}
	if want := []string{
		"{7, 8} => {9} (sup=2, conf=1.000, lift=0.000)",
		"{1} => {2} (sup=3, conf=0.750, lift=1.500)",
		"{2} => {1} (sup=3, conf=0.750, lift=1.500)",
	}; !slices.Equal(got, want) {
		t.Errorf("rules past L1:\n got %q\nwant %q", got, want)
	}
	if rules, err := GenerateRules(noPairs, 0.1, newRule); err != nil || rules != nil {
		t.Errorf("rules with no pairs = %v (err %v), want none", rules, err)
	}
}

// TestGenerateRulesAllocations pins GenerateRules' allocations on the
// BenchmarkGenerateRules fixture at 10: the call's state, the L1
// supports, the records, the first-item tables, the split and consequent
// scratches, the arena and the rules, plus whatever the consequent levels
// of the fixture's longest itemsets outgrow.
func TestGenerateRulesAllocations(t *testing.T) {
	res := kernelResult(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := GenerateRules(res, 0.3, newRule); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("GenerateRules: %v allocations per call, want at most 10", allocs)
	}
}

// kernelResult is the BenchmarkGenerateRules fixture's frequent set.
func kernelResult(t *testing.T) *Result {
	t.Helper()
	db, _ := benchKernels(t)
	res, err := (&Apriori{Workers: 2}).Mine(db, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
