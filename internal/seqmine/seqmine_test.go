package seqmine

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/synth"
	"repro/internal/transactions"
)

func is(items ...int) transactions.Itemset { return transactions.NewItemset(items...) }

// paperData is the worked example of ICDE'95 (§2): five customers.
func paperData() []Sequence {
	return []Sequence{
		{is(30), is(90)},
		{is(10, 20), is(30), is(40, 60, 70)},
		{is(30, 50, 70)},
		{is(30), is(40, 70), is(90)},
		{is(90)},
	}
}

func TestSequenceContains(t *testing.T) {
	s := Sequence{is(10, 20), is(30), is(40, 60, 70)}
	tests := []struct {
		sub  Sequence
		want bool
	}{
		{Sequence{is(30)}, true},
		{Sequence{is(10), is(40)}, true},
		{Sequence{is(20), is(30), is(70)}, true},
		{Sequence{is(10, 20), is(40, 70)}, true},
		{Sequence{is(30), is(10)}, false}, // order violated
		{Sequence{is(10, 30)}, false},     // items span elements
		{Sequence{is(99)}, false},
		{Sequence{}, true},
	}
	for i, tt := range tests {
		if got := s.Contains(tt.sub); got != tt.want {
			t.Errorf("case %d: Contains(%v) = %v, want %v", i, tt.sub, got, tt.want)
		}
	}
}

func TestSequenceContainsDistinctElements(t *testing.T) {
	// Both pattern elements must map to distinct transactions.
	s := Sequence{is(1, 2)}
	if s.Contains(Sequence{is(1), is(2)}) {
		t.Error("two pattern elements matched one transaction")
	}
	s2 := Sequence{is(1), is(1)}
	if !s2.Contains(Sequence{is(1), is(1)}) {
		t.Error("repeated elements should match repeated transactions")
	}
}

func TestSequenceKeyStringEqual(t *testing.T) {
	s := Sequence{is(1, 2), is(3)}
	if s.Key() != "1,2|3" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.String() != "<{1, 2} {3}>" {
		t.Errorf("String = %q", s.String())
	}
	if !s.Equal(Sequence{is(2, 1), is(3)}) {
		t.Error("Equal failed on same content")
	}
	if s.Equal(Sequence{is(1, 2)}) {
		t.Error("Equal true for different lengths")
	}
}

func TestPaperExample(t *testing.T) {
	// ICDE'95: with minsup 25% (2 of 5 customers) the maximal frequent
	// sequences include <(30)(90)> and <(30)(40 70)>.
	data := paperData()
	for _, m := range []Miner{&AprioriAll{}, &GSP{}} {
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Mine(data, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			mustSupport(t, res, Sequence{is(30), is(90)}, 2)
			mustSupport(t, res, Sequence{is(30), is(40, 70)}, 2)
			mustSupport(t, res, Sequence{is(30)}, 4)
			mustSupport(t, res, Sequence{is(90)}, 3)
			mustSupport(t, res, Sequence{is(70)}, 3)
			// <(10 20)> appears for only one customer: infrequent.
			if _, ok := res.Support(Sequence{is(10, 20)}); ok {
				t.Error("<(10 20)> should be infrequent")
			}
		})
	}
}

func mustSupport(t *testing.T, res *Result, seq Sequence, want int) {
	t.Helper()
	got, ok := res.Support(seq)
	if !ok {
		t.Errorf("%v not found as frequent", seq)
		return
	}
	if got != want {
		t.Errorf("support(%v) = %d, want %d", seq, got, want)
	}
}

func TestMaximal(t *testing.T) {
	res, err := (&AprioriAll{}).Mine(paperData(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	maximal := res.Maximal()
	keys := make(map[string]bool)
	for _, sc := range maximal {
		keys[sc.Seq.Key()] = true
	}
	// The paper's answer set: <(30)(90)> and <(30)(40 70)>.
	if !keys["30|90"] {
		t.Errorf("maximal missing <(30)(90)>: %v", keys)
	}
	if !keys["30|40,70"] {
		t.Errorf("maximal missing <(30)(40 70)>: %v", keys)
	}
	// <(30)> is contained in <(30)(90)>: not maximal.
	if keys["30"] {
		t.Error("<(30)> should not be maximal")
	}
}

func TestMinersAgreeOnSynthetic(t *testing.T) {
	raw, err := synth.Sequences(synth.SequenceConfig{
		NumCustomers: 150, AvgTxPerCust: 6, AvgTxSize: 2,
		AvgSeqPatLen: 3, AvgPatternSize: 1.25,
		NumSeqPatterns: 30, NumItemsets: 80, NumItems: 60,
		CorruptionMean: 0.4, CorruptionSD: 0.1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := FromSynth(raw)
	for _, minSup := range []float64{0.2, 0.1} {
		a, err := (&AprioriAll{}).Mine(data, minSup)
		if err != nil {
			t.Fatal(err)
		}
		g, err := (&GSP{}).Mine(data, minSup)
		if err != nil {
			t.Fatal(err)
		}
		am := supportMap(a)
		gm := supportMap(g)
		if len(am) != len(gm) {
			t.Errorf("minsup %v: AprioriAll %d sequences, GSP %d", minSup, len(am), len(gm))
		}
		for k, v := range am {
			if gm[k] != v {
				t.Errorf("minsup %v: %s: AprioriAll %d, GSP %d", minSup, k, v, gm[k])
			}
		}
	}
}

func supportMap(r *Result) map[string]int {
	out := make(map[string]int)
	for _, sc := range r.All() {
		out[sc.Seq.Key()] = sc.Count
	}
	return out
}

func TestMinersMatchBruteForce(t *testing.T) {
	// Tiny dataset: enumerate all frequent sequences up to 3 items by
	// brute force and compare.
	data := []Sequence{
		{is(1), is(2)},
		{is(1), is(2), is(3)},
		{is(1, 2), is(3)},
		{is(2), is(3)},
	}
	minCount := 2
	// Brute force: candidate space over items 1..3, sequences of up to 3
	// elements with elements of size 1..2.
	universe := []transactions.Itemset{
		is(1), is(2), is(3), is(1, 2), is(1, 3), is(2, 3),
	}
	bf := make(map[string]int)
	var enumerate func(prefix Sequence, itemsLeft int)
	enumerate = func(prefix Sequence, itemsLeft int) {
		if len(prefix) > 0 {
			count := 0
			for _, cust := range data {
				if cust.Contains(prefix) {
					count++
				}
			}
			if count >= minCount {
				bf[prefix.Key()] = count
			} else {
				return // anti-monotone: no extension can be frequent
			}
		}
		if itemsLeft == 0 {
			return
		}
		for _, e := range universe {
			if len(e) <= itemsLeft {
				enumerate(append(prefix.Clone(), e), itemsLeft-len(e))
			}
		}
	}
	enumerate(nil, 3)

	for _, m := range []Miner{&AprioriAll{}, &GSP{}} {
		res, err := m.Mine(data, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		got := supportMap(res)
		for k, v := range bf {
			if got[k] != v {
				t.Errorf("%s: support(%s) = %d, want %d", m.Name(), k, got[k], v)
			}
		}
		for k := range got {
			if _, ok := bf[k]; !ok {
				t.Errorf("%s: unexpected frequent sequence %s", m.Name(), k)
			}
		}
	}
}

func TestGSPGeneratesFewerCandidates(t *testing.T) {
	// The EDBT'96 headline: GSP counts fewer candidates than AprioriAll.
	raw, err := synth.Sequences(synth.SequenceConfig{
		NumCustomers: 200, AvgTxPerCust: 8, AvgTxSize: 2.5,
		AvgSeqPatLen: 4, AvgPatternSize: 1.25,
		NumSeqPatterns: 40, NumItemsets: 100, NumItems: 80,
		CorruptionMean: 0.4, CorruptionSD: 0.1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := FromSynth(raw)
	a, err := (&AprioriAll{}).Mine(data, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := (&GSP{}).Mine(data, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	aCands, gCands := 0, 0
	for _, p := range a.Passes {
		aCands += p.Candidates
	}
	for _, p := range g.Passes {
		gCands += p.Candidates
	}
	if gCands >= aCands {
		t.Errorf("GSP candidates %d >= AprioriAll candidates %d", gCands, aCands)
	}
}

func TestValidation(t *testing.T) {
	data := paperData()
	for _, m := range []Miner{&AprioriAll{}, &GSP{}} {
		if _, err := m.Mine(data, 0); !errors.Is(err, ErrBadSupport) {
			t.Errorf("%s: minsup 0 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(data, 2); !errors.Is(err, ErrBadSupport) {
			t.Errorf("%s: minsup 2 error = %v", m.Name(), err)
		}
		if _, err := m.Mine(nil, 0.5); !errors.Is(err, ErrEmptyData) {
			t.Errorf("%s: empty error = %v", m.Name(), err)
		}
	}
}

func TestNoFrequentSequences(t *testing.T) {
	data := []Sequence{
		{is(1)}, {is(2)}, {is(3)}, {is(4)},
	}
	for _, m := range []Miner{&AprioriAll{}, &GSP{}} {
		res, err := m.Mine(data, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.NumFrequent() != 0 {
			t.Errorf("%s: frequent = %d", m.Name(), res.NumFrequent())
		}
	}
}

func TestGSPDropHelpers(t *testing.T) {
	s := Sequence{is(1, 2), is(3)}
	if got := dropFirst(s); !got.Equal(Sequence{is(2), is(3)}) {
		t.Errorf("dropFirst = %v", got)
	}
	if got := dropLast(s); !got.Equal(Sequence{is(1, 2)}) {
		t.Errorf("dropLast = %v", got)
	}
	single := Sequence{is(5), is(7)}
	if got := dropFirst(single); !got.Equal(Sequence{is(7)}) {
		t.Errorf("dropFirst singleton = %v", got)
	}
	if got := dropLast(single); !got.Equal(Sequence{is(5)}) {
		t.Errorf("dropLast singleton = %v", got)
	}
}

func TestDropItem(t *testing.T) {
	s := Sequence{is(1, 2), is(3)}
	if got := dropItem(s, 0, 0); !got.Equal(Sequence{is(2), is(3)}) {
		t.Errorf("dropItem(0,0) = %v", got)
	}
	if got := dropItem(s, 1, 0); !got.Equal(Sequence{is(1, 2)}) {
		t.Errorf("dropItem(1,0) = %v", got)
	}
}

func TestAnteMonotoneSupportsOnSynthetic(t *testing.T) {
	raw, err := synth.Sequences(synth.SequenceConfig{
		NumCustomers: 100, AvgTxPerCust: 5, AvgTxSize: 2,
		AvgSeqPatLen: 3, AvgPatternSize: 1.25,
		NumSeqPatterns: 20, NumItemsets: 50, NumItems: 40,
		CorruptionMean: 0.4, CorruptionSD: 0.1, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := FromSynth(raw)
	res, err := (&GSP{}).Mine(data, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping any item from a frequent sequence yields a frequent
	// sequence with at least the same support.
	for _, sc := range res.All() {
		if len(slices.Concat(sc.Seq...)) < 2 {
			continue
		}
		for ei, elem := range sc.Seq {
			for ii := range elem {
				sub := dropItem(sc.Seq, ei, ii)
				sup, ok := res.Support(sub)
				if !ok {
					t.Fatalf("subsequence %v of frequent %v missing", sub, sc.Seq)
				}
				if sup < sc.Count {
					t.Fatalf("support(%v)=%d < support(%v)=%d", sub, sup, sc.Seq, sc.Count)
				}
			}
		}
	}
}

func TestIdSeqKeyAndAppendInt(t *testing.T) {
	if got := idSeqKey([]int{0, 12, 345}); got != "0,12,345" {
		t.Errorf("idSeqKey = %q", got)
	}
	if got := string(appendInt(nil, 0)); got != "0" {
		t.Errorf("appendInt(0) = %q", got)
	}
	if got := string(appendInt(nil, 90210)); got != "90210" {
		t.Errorf("appendInt = %q", got)
	}
}

// TestAprioriAllCountsItsLitemsetPhase pins AprioriAll's pass 1 on the
// ICDE'95 example at 2 customers: its candidates are every itemset the
// litemset phase counted — the 8 items seen, then the 6 pairs of the 4
// frequent items ({30}, {40}, {70}, {90}) — and its frequent count is the
// 5 litemsets, those 4 and {40, 70}. A pass that recorded only the
// litemsets would read 5 candidates.
func TestAprioriAllCountsItsLitemsetPhase(t *testing.T) {
	res, err := (&AprioriAll{}).Mine(paperData(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCount != 2 {
		t.Fatalf("MinCount = %d, want 2", res.MinCount)
	}
	if got, want := res.Passes[0], (PassStat{K: 1, Candidates: 14, Frequent: 5}); got != want {
		t.Errorf("pass 1 = %+v, want %+v", got, want)
	}
}
