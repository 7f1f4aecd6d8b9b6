package reference

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/assoc"
	"repro/internal/synth"
	"repro/internal/transactions"
)

func TestAISCountsMoreCandidatesThanApriori(t *testing.T) {
	// The VLDB'94 claim: AIS generates candidates Apriori's join/prune
	// never would (extensions by infrequent items). At moderate supports,
	// where Apriori's C2 = C(|L1|, 2) stays small, this shows directly in
	// the candidate counts. (At very low supports Apriori's C2 dominates
	// by count but is counted cheaply in one candidate scan; the paper's
	// comparison is execution time, reproduced in EXP-A1.)
	db, err := synth.Baskets(synth.TxI(8, 3, 300, 41))
	if err != nil {
		t.Fatal(err)
	}
	apCands, aisCands := 0, 0
	for _, p := range mine(t, &assoc.Apriori{}, db, 0.03).Passes[1:] { // skip pass 1 (same for both)
		apCands += p.Candidates
	}
	for _, p := range mine(t, &AIS{}, db, 0.03).Passes[1:] {
		aisCands += p.Candidates
	}
	if aisCands <= apCands {
		t.Errorf("AIS candidates %d <= Apriori candidates %d; expected more", aisCands, apCands)
	}
}

func TestHybridSwitches(t *testing.T) {
	// With a huge budget the hybrid switches right after pass 2; with
	// budget 1 it never switches (pure Apriori path). Either way the
	// result must match Apriori's.
	db, err := synth.Baskets(synth.TxI(6, 2, 150, 51))
	if err != nil {
		t.Fatal(err)
	}
	want := mine(t, &assoc.Apriori{}, db, 0.03).Canonical()
	for _, budget := range []int{1 << 30, 1} {
		if !bytes.Equal(mine(t, &AprioriHybrid{BudgetEntries: budget}, db, 0.03).Canonical(), want) {
			t.Errorf("budget %d: result differs from Apriori's", budget)
		}
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	for _, s := range []transactions.Itemset{
		transactions.NewItemset(0),
		transactions.NewItemset(1, 22, 333),
		transactions.NewItemset(7, 1000000),
	} {
		if got := parseKey(s.Key()); !got.Equal(s) {
			t.Errorf("parseKey(%q) = %v, want %v", s.Key(), got, s)
		}
	}
}

func TestGeneratorIndices(t *testing.T) {
	prev := []transactions.Itemset{
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1, 3),
		transactions.NewItemset(1, 4),
		transactions.NewItemset(2, 3),
		transactions.NewItemset(2, 4),
		transactions.NewItemset(3, 4),
	}
	cands := assoc.AprioriGen(prev) // {1,2,3} {1,2,4} {1,3,4} {2,3,4}
	gens := generatorIndices(cands, prev)
	// Each candidate's generators: its prefix and the prefix with the last
	// item replaced, e.g. {1,2,4} from {1,2} (index 0) and {1,4} (index 2).
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}}
	if len(gens) != len(want) {
		t.Fatalf("generators = %v for %v", gens, cands)
	}
	for i := range want {
		if gens[i] != want[i] {
			t.Errorf("generators of %v = %v, want %v", cands[i], gens[i], want[i])
		}
	}
}

func TestAdvanceBarCounts(t *testing.T) {
	// Three transactions over candidate ids {0,1,2} standing for the
	// prev-level sets; candidate X has generators (0,1), Y has (1,2).
	bar := []tidEntry{
		{tid: 0, cands: []int{0, 1, 2}}, // supports X and Y
		{tid: 1, cands: []int{0, 1}},    // supports X only
		{tid: 2, cands: []int{2}},       // supports neither
	}
	gens := [][2]int{{0, 1}, {1, 2}}
	counts := make([]int32, 2)
	out, err := advanceBar(context.Background(), bar, gens, counts)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v, want [2 1]", counts)
	}
	if len(out) != 2 {
		t.Fatalf("entries = %d, want 2 (empty entries dropped)", len(out))
	}
	if out[0].tid != 0 || len(out[0].cands) != 2 {
		t.Errorf("entry 0 = %+v", out[0])
	}
	if out[1].tid != 1 || len(out[1].cands) != 1 || out[1].cands[0] != 0 {
		t.Errorf("entry 1 = %+v", out[1])
	}
}

func TestFilterBarRenumbers(t *testing.T) {
	bar := []tidEntry{
		{tid: 0, cands: []int{0, 1, 2}},
		{tid: 1, cands: []int{1}},
	}
	keep := []int{-1, 0, 1} // candidate 0 infrequent; 1 -> 0; 2 -> 1
	out := filterBar(bar, keep)
	if len(out) != 2 {
		t.Fatalf("entries = %d", len(out))
	}
	if len(out[0].cands) != 2 || out[0].cands[0] != 0 || out[0].cands[1] != 1 {
		t.Errorf("entry 0 = %v", out[0].cands)
	}
	if len(out[1].cands) != 1 || out[1].cands[0] != 0 {
		t.Errorf("entry 1 = %v", out[1].cands)
	}
}

// TestBuildBarMatchesContainment checks C̄k over a level against a
// containment test of every itemset in every transaction.
func TestBuildBarMatchesContainment(t *testing.T) {
	db := equivalenceDB(t)
	res := mine(t, &assoc.Apriori{}, db, 0.05)
	for k, level := range res.Levels {
		bar, err := buildBar(context.Background(), db, level)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for tid, tx := range db.Transactions {
			var want []int
			for id, ic := range level {
				if tx.ContainsAll(ic.Items) {
					want = append(want, id)
				}
			}
			if len(want) == 0 {
				continue
			}
			if next >= len(bar) || bar[next].tid != tid || !transactions.Itemset(bar[next].cands).Equal(want) {
				t.Fatalf("level %d, tid %d: C̄ entry %+v, want ids %v", k+1, tid, bar[min(next, len(bar)-1)], want)
			}
			next++
		}
		if next != len(bar) {
			t.Fatalf("level %d: %d C̄ entries, want %d", k+1, len(bar), next)
		}
	}
}

func TestSamplingClampsTinySamples(t *testing.T) {
	// A 10% sample of a tiny DB is a couple of transactions; the clamp
	// must keep the sample mining from declaring everything frequent.
	got := mine(t, &Sampling{SampleFraction: 0.1, LowerFactor: 0.1, Seed: 3}, paperDB(t), 0.5).Canonical()
	if !bytes.Equal(got, paperCanonical(t)) {
		t.Errorf("Canonical = %q, oracle %q", got, paperCanonical(t))
	}
}

// TestSamplingMatchesApriori checks exactness across seeds: Toivonen's
// algorithm verifies the sampled candidates and their negative border
// against the full database and repairs misses, so the final result must
// equal a from-scratch Apriori run no matter how unlucky the sample was.
func TestSamplingMatchesApriori(t *testing.T) {
	cfg := synth.TxI(8, 3, 400, 21)
	cfg.NumItems = 50
	cfg.NumPatterns = 25
	db, err := synth.Baskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mine(t, &assoc.Apriori{}, db, 0.04)
	for seed := int64(0); seed < 6; seed++ {
		got := mine(t, &Sampling{SampleFraction: 0.15, LowerFactor: 0.75, Seed: seed}, db, 0.04)
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Fatalf("seed %d: Sampling diverged from Apriori", seed)
		}
	}
}

// TestSamplingDefaults: out-of-range knobs fall back to the documented
// defaults rather than breaking the run.
func TestSamplingDefaults(t *testing.T) {
	db := transactions.NewDB()
	for i := 0; i < 50; i++ {
		if err := db.Add(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	want := mine(t, &assoc.Apriori{}, db, 0.5)
	for _, s := range []*Sampling{
		{SampleFraction: -1, LowerFactor: -1, Seed: 3}, // both below range
		{SampleFraction: 2, LowerFactor: 2, Seed: 3},   // both above range
	} {
		if got := mine(t, s, db, 0.5); !bytes.Equal(got.Canonical(), want.Canonical()) {
			t.Fatal("defaulted Sampling diverged from Apriori")
		}
	}
}

// TestSamplingErrors covers the shared input validation.
func TestSamplingErrors(t *testing.T) {
	s := &Sampling{}
	if _, err := s.Mine(transactions.NewDB(), 0.5); err == nil {
		t.Error("empty database should error")
	}
	db := dbOf(t, []int{1})
	if _, err := s.Mine(db, 0); err == nil {
		t.Error("support 0 should error")
	}
	if _, err := s.Mine(db, 1.5); err == nil {
		t.Error("support > 1 should error")
	}
}

// pollCtx counts its Err polls and reports context.Canceled from poll
// left+1 on.
type pollCtx struct {
	context.Context
	left, polls atomic.Int64
}

func newPollCtx(left int64) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.left.Store(left)
	return c
}

func (c *pollCtx) Err() error {
	c.polls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelFixture spans several context strides and more than one of the
// candidate count's 4096-row blocks (transactions.CountTids polls once per
// block), so every full scan polls more than once.
func cancelFixture(t *testing.T) *transactions.DB {
	t.Helper()
	cfg := synth.TxI(8, 3, 5*ctxStride+100, 61)
	cfg.NumItems = 100
	cfg.NumPatterns = 50
	db, err := synth.Baskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMineContextCancellation holds every reference engine to the
// assoc.Miner contract: under a context that is already cancelled, or
// that reports cancellation from any one of a full mine's polls on, the
// mine returns context.Canceled.
func TestMineContextCancellation(t *testing.T) {
	db := cancelFixture(t)
	const minSup = 0.02
	for _, m := range []assoc.Miner{
		&AIS{}, &SETM{}, &AprioriTid{}, &AprioriHybrid{}, &Partition{NumPartitions: 3}, &Sampling{Seed: 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := m.MineContext(ctx, db, minSup); !errors.Is(err, context.Canceled) {
			t.Errorf("%s pre-cancelled: err = %v, want context.Canceled", m.Name(), err)
		}
		full := newPollCtx(math.MaxInt64)
		if _, err := m.MineContext(full, db, minSup); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		polls := full.polls.Load()
		// Cancel at the first, the last and seven evenly spread polls between.
		for i := int64(0); i <= 8; i++ {
			left := i * (polls - 1) / 8
			if _, err := m.MineContext(newPollCtx(left), db, minSup); !errors.Is(err, context.Canceled) {
				t.Errorf("%s cancelled after %d of %d polls: err = %v, want context.Canceled", m.Name(), left, polls, err)
			}
		}
	}
}

// TestScansPollContext pins the stride polling of the scans over |D|:
// under a context that reports cancellation from its second poll on, a
// scan of more than one stride must return context.Canceled.
func TestScansPollContext(t *testing.T) {
	db := cancelFixture(t)
	ctx := context.Background()
	res := mine(t, &assoc.Apriori{}, db, 0.02)
	l1, l2 := res.Levels[0], res.Levels[1]
	scans := map[string]func(context.Context) error{
		"pass 1": func(ctx context.Context) error {
			_, _, err := startResult(ctx, db, 0.02)
			return err
		},
		"pass 2 triangle": func(ctx context.Context) error {
			_, _, err := countPairs(ctx, db, l1, res.MinCount)
			return err
		},
		"C̄1": func(ctx context.Context) error {
			_, err := buildBar(ctx, db, l1)
			return err
		},
		"C̄2": func(ctx context.Context) error {
			_, err := buildBar(ctx, db, l2)
			return err
		},
		"candidate count": func(ctx context.Context) error {
			_, err := countCandidates(ctx, db, itemsetsOf(l2))
			return err
		},
	}
	for name, scan := range scans {
		if err := scan(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := scan(newPollCtx(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v after a cancellation at the second poll, want context.Canceled", name, err)
		}
	}
}
