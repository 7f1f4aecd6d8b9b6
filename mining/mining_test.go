package mining

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/assoc"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// testData returns a synthetic basket workload both as the internal DB
// (for the old call paths) and the public wrapper (for the facade).
func testData(t *testing.T, numTx int, seed int64) (*DB, *transactions.DB) {
	t.Helper()
	tdb, err := synth.Baskets(synth.TxI(8, 3, numTx, seed))
	if err != nil {
		t.Fatal(err)
	}
	return &DB{db: tdb}, tdb
}

// TestMineMatchesInternalCallPaths is the facade's byte-identity
// contract: for every registered engine, mining through the public API
// produces a Canonical encoding identical to the pre-facade internal call
// path, at workers 1 and 4.
func TestMineMatchesInternalCallPaths(t *testing.T) {
	db, tdb := testData(t, 600, 7)
	const minSup = 0.01
	for _, name := range Algorithms() {
		for _, workers := range []int{1, 4} {
			old, err := internalMine(name, tdb, minSup, workers)
			if err != nil {
				t.Fatalf("%s internal: %v", name, err)
			}
			got, err := Mine(context.Background(), db,
				Algorithm(name), MinSupport(minSup), Workers(workers))
			if err != nil {
				t.Fatalf("%s facade: %v", name, err)
			}
			if string(got.Canonical()) != string(old.Canonical()) {
				t.Errorf("%s workers=%d: facade result differs from internal call path", name, workers)
			}
		}
	}
}

// internalMine runs the pre-facade call path: a registry engine configured
// by SetWorkers, closed if it owns resources.
func internalMine(name string, db *transactions.DB, minSup float64, workers int) (*assoc.Result, error) {
	for _, m := range assoc.Registered() {
		if m.Name() != name {
			continue
		}
		m.SetWorkers(workers)
		if c, ok := m.(interface{ Close() error }); ok {
			defer c.Close()
		}
		return m.Mine(db, minSup)
	}
	return nil, errors.New("no such miner: " + name)
}

// TestAlgorithmsAreTheSixRegisteredEngines pins the boundary of the public
// Algorithm option: exactly the six registered engines, and each reference
// engine of paper tables A1 to A6 — runnable only from internal/assoc — is
// rejected by Mine, MineStream and NewSession with ErrUnknownAlgorithm
// naming the six, before anything is scanned (no Progress event fires).
func TestAlgorithmsAreTheSixRegisteredEngines(t *testing.T) {
	want := []string{"Apriori", "DHP", "Eclat", "FPGrowth", "Auto", "Distributed"}
	if got := Algorithms(); !slices.Equal(got, want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
	db, _ := testData(t, 50, 1)
	ctx := context.Background()
	for _, name := range []string{"AIS", "SETM", "AprioriTid", "AprioriHybrid", "Partition(4)", "Sampling"} {
		opts := []Option{Algorithm(name), Progress(func(PassStat) {
			t.Errorf("%s: a pass ran before the name was rejected", name)
		})}
		_, mineErr := Mine(ctx, db, opts...)
		var streamErr error
		for _, err := range MineStream(ctx, db, opts...) {
			streamErr = err
		}
		_, sessionErr := NewSession(db, opts...)
		for call, err := range map[string]error{"Mine": mineErr, "MineStream": streamErr, "NewSession": sessionErr} {
			if !errors.Is(err, ErrUnknownAlgorithm) {
				t.Errorf("%s(%s): err = %v, want ErrUnknownAlgorithm", call, name, err)
			} else if !strings.Contains(err.Error(), fmt.Sprint(want)) {
				t.Errorf("%s(%s): %q does not list %v", call, name, err, want)
			}
		}
	}
}

// TestMineWithTransportMatchesLocal pins the Transport option: the
// distributed engine over an in-process encoding transport is byte-identical
// to the local engines for both counting strategies.
func TestMineWithTransportMatchesLocal(t *testing.T) {
	db, tdb := testData(t, 400, 11)
	const minSup = 0.01
	want, err := (&assoc.Apriori{}).Mine(tdb, minSup)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"Apriori", "FPGrowth", "Auto"} {
		got, err := Mine(context.Background(), db,
			Algorithm(algo), MinSupport(minSup), Transport(LocalTransport(2)))
		if err != nil {
			t.Fatalf("%s over transport: %v", algo, err)
		}
		if string(got.Canonical()) != string(want.Canonical()) {
			t.Errorf("%s over transport differs from local Apriori", algo)
		}
	}
	// Engines without a distributed form are rejected before any shipping.
	if _, err := Mine(context.Background(), db,
		Algorithm("Eclat"), Transport(LocalTransport(2))); !errors.Is(err, ErrBadOption) {
		t.Errorf("Eclat over transport: err = %v, want ErrBadOption", err)
	}
}

// TestMineStreamMatchesMine pins the streaming contract: the concatenated
// levels equal the one-shot result, for a natively streaming engine and
// for an assemble-at-the-end engine.
func TestMineStreamMatchesMine(t *testing.T) {
	db, _ := testData(t, 500, 3)
	const minSup = 0.01
	for _, algo := range []string{"Apriori", "FPGrowth", "Eclat", "DHP"} {
		want, err := Mine(context.Background(), db, Algorithm(algo), MinSupport(minSup))
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		nextK := 1
		for level, err := range MineStream(context.Background(), db, Algorithm(algo), MinSupport(minSup)) {
			if err != nil {
				t.Fatalf("%s stream: %v", algo, err)
			}
			if level.K != nextK {
				t.Fatalf("%s stream: level %d out of order (want %d)", algo, level.K, nextK)
			}
			nextK++
			for _, ic := range level.Itemsets {
				got = append(got, transactions.NewItemset(ic.Items...).Key()...)
				got = append(got, ':')
				got = append(got, []byte(itoa(ic.Count))...)
				got = append(got, '\n')
			}
		}
		if string(got) != string(want.Canonical()) {
			t.Errorf("%s: streamed levels differ from Mine result", algo)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestMineStreamEarlyBreak pins that abandoning the stream cancels the
// mine and releases its goroutines.
func TestMineStreamEarlyBreak(t *testing.T) {
	db, _ := testData(t, 500, 5)
	before := runtime.NumGoroutine()
	for level, err := range MineStream(context.Background(), db, Algorithm("Apriori"), MinSupport(0.005)) {
		if err != nil {
			t.Fatal(err)
		}
		if level.K >= 1 {
			break
		}
	}
	waitForGoroutines(t, before)
}

// TestSessionMatchesFromScratch drives a session through appends,
// deletes and maintains, checking every maintained result is
// byte-identical to a one-shot Mine over the store's current contents.
func TestSessionMatchesFromScratch(t *testing.T) {
	db, tdb := testData(t, 300, 9)
	const minSup = 0.02
	s, err := NewSession(db, MinSupport(minSup), ShardCap(64), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Mirror of the store's live contents (as multisets; delete removes
	// the transaction DeleteAt reports, so order differences don't matter).
	mirror := make([][]int, 0, tdb.Len())
	for _, tx := range tdb.Transactions {
		mirror = append(mirror, tx)
	}
	check := func(step string) {
		t.Helper()
		res, err := s.Mine(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		snap, err := NewDB(mirror)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Mine(context.Background(), snap, Algorithm("Apriori"), MinSupport(minSup))
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if string(res.Canonical()) != string(want.Canonical()) {
			t.Fatalf("%s: maintained result differs from a from-scratch run", step)
		}
	}

	check("attach")
	for i := 0; i < 30; i++ {
		if err := s.Append(i%7, i%11, 40+i%3); err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, []int{i % 7, i % 11, 40 + i%3})
	}
	check("after appends")
	for i := 0; i < 20; i++ {
		tx, err := s.DeleteAt(i * 3 % s.Len())
		if err != nil {
			t.Fatal(err)
		}
		for j, row := range mirror {
			if transactions.NewItemset(row...).Equal(transactions.NewItemset(tx...)) {
				mirror = append(mirror[:j], mirror[j+1:]...)
				break
			}
		}
	}
	check("after deletes")

	// Maintain surfaces the dirty-shard stats.
	if err := s.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	mirror = append(mirror, []int{1, 2, 3})
	_, stats, err := s.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullRun && stats.DirtyShards == 0 {
		t.Errorf("stats = %+v, want dirty shards or a full run after an append", stats)
	}
	check("after maintain")

	if _, err := s.Rules(0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Mine(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Mine after Close: err = %v, want ErrClosed", err)
	}
	// Close detached the maintainer, so the store no longer journals.
	if err := s.store.Append(1); err != nil {
		t.Fatal(err)
	}
	if added, _ := s.store.Drain(); len(added) != 0 {
		t.Errorf("store still journalling after Close: %v", added)
	}
}

// TestSessionWithDistributedBase pins the Transport composition: a
// session whose full runs go through the distributed engine produces
// byte-identical results and still maintains incrementally.
func TestSessionWithDistributedBase(t *testing.T) {
	db, _ := testData(t, 200, 13)
	const minSup = 0.02
	s, err := NewSession(db, MinSupport(minSup), ShardCap(64), Transport(LocalTransport(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Mine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(context.Background(), db, Algorithm("Apriori"), MinSupport(minSup))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Canonical()) != string(want.Canonical()) {
		t.Fatal("distributed-base session differs from local mine")
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateInputs pins the facade's degenerate contract: the
// sentinel error plus a usable empty Result, like the engines themselves.
func TestDegenerateInputs(t *testing.T) {
	db, _ := testData(t, 50, 1)
	empty, err := NewDB(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Mine(context.Background(), empty); !errors.Is(err, ErrEmptyDB) || res == nil || res.NumFrequent() != 0 {
		t.Errorf("empty db: res=%v err=%v, want empty result + ErrEmptyDB", res, err)
	}
	if res, err := Mine(context.Background(), nil); !errors.Is(err, ErrEmptyDB) || res == nil {
		t.Errorf("nil db: res=%v err=%v, want empty result + ErrEmptyDB", res, err)
	}
	if res, err := Mine(context.Background(), db, MinSupport(1.5)); !errors.Is(err, ErrBadSupport) || res == nil {
		t.Errorf("bad support: res=%v err=%v, want empty result + ErrBadSupport", res, err)
	}
}

// TestOptionValidation pins the option-level errors and defaults.
func TestOptionValidation(t *testing.T) {
	db, _ := testData(t, 50, 1)
	if _, err := Mine(context.Background(), db, Algorithm("NoSuch")); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v", err)
	}
	if _, err := Mine(context.Background(), db, Workers(-1)); !errors.Is(err, ErrBadOption) {
		t.Errorf("negative workers: err = %v", err)
	}
	if _, err := NewSession(db, ShardCap(-1)); !errors.Is(err, ErrBadOption) {
		t.Errorf("negative shard cap: err = %v", err)
	}
	// Workers(0) resolves to GOMAXPROCS; results stay identical to serial.
	a, err := Mine(context.Background(), db, Workers(0), Algorithm("Apriori"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(context.Background(), db, Workers(1), Algorithm("Apriori"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Canonical()) != string(b.Canonical()) {
		t.Error("Workers(0) result differs from serial")
	}
	// Defaults: MinSupport 0.01, Algorithm Auto — equivalent to Apriori
	// at the same support (all engines agree).
	c, err := Mine(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Mine(context.Background(), db, Algorithm("Apriori"), MinSupport(DefaultMinSupport))
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Canonical()) != string(d.Canonical()) {
		t.Error("default options differ from Auto at DefaultMinSupport")
	}
}

// TestProgressEvents pins the Progress option: one event per recorded
// pass, in pass order.
func TestProgressEvents(t *testing.T) {
	db, _ := testData(t, 200, 17)
	var events []PassStat
	res, err := Mine(context.Background(), db,
		Algorithm("Apriori"), MinSupport(0.01), Progress(func(p PassStat) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	passes := res.Passes()
	if len(events) != len(passes) {
		t.Fatalf("got %d progress events, want %d", len(events), len(passes))
	}
	for i := range events {
		if events[i] != passes[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], passes[i])
		}
	}
}

// TestResultAccessors sanity-checks the wrapper accessors against the
// underlying result.
func TestResultAccessors(t *testing.T) {
	db, _ := testData(t, 200, 19)
	res, err := Mine(context.Background(), db, Algorithm("Apriori"), MinSupport(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTx() != 200 {
		t.Errorf("NumTx = %d", res.NumTx())
	}
	total := 0
	for k := 1; k <= res.MaxLen(); k++ {
		level := res.Level(k)
		total += len(level)
		for _, ic := range level {
			if got, ok := res.Support(ic.Items...); !ok || got != ic.Count {
				t.Errorf("Support(%v) = %d,%v, want %d", ic.Items, got, ok, ic.Count)
			}
		}
	}
	if total != res.NumFrequent() || total != len(res.Itemsets()) {
		t.Errorf("levels sum %d, NumFrequent %d, Itemsets %d", total, res.NumFrequent(), len(res.Itemsets()))
	}
	if res.Level(0) != nil || res.Level(res.MaxLen()+1) != nil {
		t.Error("out-of-range Level not nil")
	}
	rules, err := res.Rules(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Confidence < 0.5 {
			t.Errorf("rule %v below confidence", r)
		}
	}
	if _, err := res.Rules(0); !errors.Is(err, ErrBadConfidence) {
		t.Errorf("Rules(0): err = %v", err)
	}
}
