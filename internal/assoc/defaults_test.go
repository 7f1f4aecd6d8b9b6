package assoc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/synth"
	"repro/internal/transactions"
)

// TestZeroValueOptionDefaults is the cross-engine defaults audit: for
// every registered engine, the zero-valued struct must behave exactly
// like the struct with its documented defaults spelled out. This pins the
// zero-value semantics the public mining package's option documentation
// promises:
//
//	Workers        0 (and 1) mean serial, identical results at any count
//	DHP            NumBuckets=1<<16
//	Partition      NumPartitions<=1 degenerates to one partition
//	Sampling       SampleFraction=0.2, LowerFactor=0.8
//	AprioriHybrid  BudgetEntries=8*|D|
//	Distributed    Workers=1 transport, Engine=DistEngineApriori
//	Incremental    TrackSlack=0.8
func TestZeroValueOptionDefaults(t *testing.T) {
	db, err := synth.Baskets(synth.TxI(8, 3, 400, 31))
	if err != nil {
		t.Fatal(err)
	}
	const minSup = 0.01
	cases := []struct {
		name      string
		zero      Miner
		explicit  Miner
		closeBoth bool
	}{
		{name: "Apriori", zero: &Apriori{}, explicit: &Apriori{Workers: 1}},
		{name: "DHP", zero: &DHP{}, explicit: &DHP{NumBuckets: 1 << 16, Workers: 1}},
		{name: "Eclat", zero: &Eclat{}, explicit: &Eclat{Workers: 1}},
		{name: "Partition", zero: &Partition{}, explicit: &Partition{NumPartitions: 1}},
		{name: "Sampling", zero: &Sampling{}, explicit: &Sampling{SampleFraction: 0.2, LowerFactor: 0.8}},
		{name: "AprioriHybrid", zero: &AprioriHybrid{}, explicit: &AprioriHybrid{BudgetEntries: 8 * 400}},
		{name: "FPGrowth", zero: &FPGrowth{}, explicit: &FPGrowth{Workers: 1}},
		{name: "Auto", zero: &Auto{}, explicit: &Auto{Workers: 1}},
		{name: "Distributed", zero: &Distributed{}, explicit: &Distributed{Workers: 1, Engine: DistEngineApriori}, closeBoth: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.closeBoth {
				defer tc.zero.(*Distributed).Close()
				defer tc.explicit.(*Distributed).Close()
			}
			zr, err := tc.zero.Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			er, err := tc.explicit.Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if string(zr.Canonical()) != string(er.Canonical()) {
				t.Fatalf("zero-value %s differs from its documented defaults", tc.name)
			}
		})
	}

	// Partition's zero value also names itself without a partition count.
	if got := (&Partition{}).Name(); got != "Partition" {
		t.Errorf("zero Partition name = %q", got)
	}

	// Workers=0 is serial for every registered engine: byte-identical to
	// the zero value and to an explicit 4-worker run.
	for _, m := range Registered() {
		t.Run(m.Name()+"/workers", func(t *testing.T) {
			if c, ok := m.(interface{ Close() error }); ok {
				defer c.Close()
			}
			base, err := m.Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 4} {
				m.SetWorkers(w)
				got, err := m.Mine(db, minSup)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Canonical()) != string(base.Canonical()) {
					t.Fatalf("%s at Workers=%d differs from zero value", m.Name(), w)
				}
			}
		})
	}
}

// TestIncrementalTrackSlackDefault pins the maintainer's slack default:
// zero means 0.8, one tracks exactly at the mining support, and the
// out-of-range values fall back to the default.
func TestIncrementalTrackSlackDefault(t *testing.T) {
	store := transactions.NewShardedDB(64)
	for i := 0; i < 10; i++ {
		if err := store.Append(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		slack float64
		want  float64
	}{
		{0, 0.08},
		{0.8, 0.08},
		{1, 0.1},
		{0.5, 0.05},
		{1.5, 0.08}, // out of range: default
		{-1, 0.08},  // out of range: default
	} {
		inc := &Incremental{TrackSlack: tc.slack}
		if _, _, err := inc.Attach(store, 0.1); err != nil {
			t.Fatal(err)
		}
		if got := inc.trackSupport(); !floatEq(got, tc.want) {
			t.Errorf("TrackSlack=%v: trackSupport = %v, want %v", tc.slack, got, tc.want)
		}
	}
}

func floatEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestCancelledRebuildDropsStaleResult pins the recovery contract: when a
// Maintain's delta count succeeds but the border-crossing rebuild is
// cancelled mid-full-run, the maintainer must not let a later Maintain take
// the nothing-changed fast path back to the stale result — the store length
// is unchanged (append+delete), so only the dropped state forces the
// re-mine. A countdown context lands the cancellation on each of the
// Maintain's context polls in turn, until one falls inside the full run
// (the one place that drops the maintained result).
func TestCancelledRebuildDropsStaleResult(t *testing.T) {
	for polls := int64(0); ; polls++ {
		store := transactions.NewShardedDB(64)
		for i := 0; i < 10; i++ {
			if err := store.Append(i%3, 3+i%2); err != nil {
				t.Fatal(err)
			}
		}
		inc := &Incremental{}
		if _, _, err := inc.Attach(store, 0.1); err != nil {
			t.Fatal(err)
		}
		// Same length, new frequent item 9: the tracked set cannot cover it,
		// so Maintain counts the delta, fails threshold and rebuilds.
		if err := store.Append(9, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := store.DeleteAt(0); err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(polls)
		_, stats, err := inc.MaintainContext(ctx)
		if err == nil {
			t.Fatalf("no cancellation landed inside the full run (stats %+v after %d polls)", stats, polls)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled rebuild: err = %v, want context.Canceled", err)
		}
		if inc.Result() != nil {
			continue // cancelled in the delta count, before the full run
		}
		res, _, err := inc.Maintain()
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&Apriori{}).Mine(store.Snapshot(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Canonical()) != string(want.Canonical()) {
			t.Fatal("post-cancel Maintain returned a stale result instead of re-mining")
		}
		return
	}
}
