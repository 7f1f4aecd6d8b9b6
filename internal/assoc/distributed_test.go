package assoc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dist"
	"repro/internal/synth"
	"repro/internal/transactions"
)

// newDistributed builds a Distributed engine over a fresh in-process
// transport in encode mode; the caller must Close it.
func newDistributed(engine string, workers int) *Distributed {
	return &Distributed{
		Transport: dist.NewLocalTransport(workers, true),
		Workers:   workers,
		Engine:    engine,
	}
}

// TestDistributedByteIdenticalProperty is the acceptance gate: on random
// databases, the distributed Apriori path is byte-identical to local
// Apriori and the distributed FPGrowth path to local FPGrowth, at workers
// 1, 2 and 4 over the in-process encoding transport.
func TestDistributedByteIdenticalProperty(t *testing.T) {
	f := func(seed int64, minRaw uint8) bool {
		db := randomDB(seed)
		minSup := 0.1 + float64(minRaw%60)/100.0
		for _, workers := range []int{1, 2, 4} {
			for _, engine := range []string{DistEngineApriori, DistEngineFPGrowth} {
				var local Miner
				if engine == DistEngineApriori {
					local = &Apriori{}
				} else {
					local = &FPGrowth{}
				}
				want, err := local.Mine(db, minSup)
				if err != nil {
					t.Logf("local %s: %v", engine, err)
					return false
				}
				d := newDistributed(engine, workers)
				got, err := d.Mine(db, minSup)
				d.Close()
				if err != nil {
					t.Logf("distributed %s workers=%d: %v", engine, workers, err)
					return false
				}
				if string(got.Canonical()) != string(want.Canonical()) {
					t.Logf("distributed %s workers=%d diverges (seed %d minSup %v)\n got %s\nwant %s",
						engine, workers, seed, minSup, got.Canonical(), want.Canonical())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// deepFixture is a Quest-generator workload deep enough for multi-level
// passes and real hash-tree counting at minimum support 0.02.
func deepFixture(t *testing.T) *transactions.DB {
	t.Helper()
	db, err := synth.Baskets(synth.BasketConfig{
		NumTransactions: 400, AvgTxSize: 8, AvgPatternSize: 3,
		NumPatterns: 40, NumItems: 60,
		CorruptionMean: 0.4, CorruptionSD: 0.1, CorrelationMean: 0.5, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDistributedSyntheticWorkload runs the equivalence once on a
// Quest-generator workload deep enough for multi-level passes and real
// hash-tree counting, at workers 4.
func TestDistributedSyntheticWorkload(t *testing.T) {
	db := deepFixture(t)
	for _, engine := range []string{DistEngineApriori, DistEngineFPGrowth} {
		want, err := (&Apriori{}).Mine(db, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		d := newDistributed(engine, 4)
		got, err := d.Mine(db, 0.02)
		d.Close()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if string(got.Canonical()) != string(want.Canonical()) {
			t.Errorf("distributed %s diverges from Apriori on synthetic workload", engine)
		}
	}
}

// TestDistributedDefaultTransport checks the zero-value engine builds its
// own in-process transport and still matches the local reference.
func TestDistributedDefaultTransport(t *testing.T) {
	db := randomDB(99)
	want, err := (&Apriori{}).Mine(db, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d := &Distributed{}
	defer d.Close()
	got, err := d.Mine(db, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Canonical()) != string(want.Canonical()) {
		t.Error("zero-value Distributed diverges from Apriori")
	}
	// Re-mining a plain DB opens a new epoch: everything re-ships, stale
	// replicas can never alias a different database.
	before := d.Coordinator().Stats().ShippedShards
	if _, err := d.Mine(db, 0.3); err != nil {
		t.Fatal(err)
	}
	if after := d.Coordinator().Stats().ShippedShards; after <= before {
		t.Errorf("plain re-mine shipped nothing (before %d, after %d)", before, after)
	}
}

// TestDistributedUnknownEngine pins the engine-name validation.
func TestDistributedUnknownEngine(t *testing.T) {
	d := newDistributed("Eclat", 1)
	defer d.Close()
	if _, err := d.Mine(randomDB(3), 0.5); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestDistributedStoreReshipsOnlyDirtyShards is the incremental acceptance
// check on the maintainer path: every full run of an Incremental with a
// Remote syncs the store, re-shipping exactly the shards a mutation
// dirtied, not the whole database — and a plain Mine in between, whose
// epoch-versioned shards share the store's ids, makes the next full run
// re-ship everything.
func TestDistributedStoreReshipsOnlyDirtyShards(t *testing.T) {
	store := transactions.NewShardedDB(64)
	for i := 0; i < 300; i++ {
		if err := store.Append(i%7, 7+i%5, 12+i%3); err != nil {
			t.Fatal(err)
		}
	}
	d := newDistributed(DistEngineApriori, 2)
	defer d.Close()
	inc := &Incremental{Remote: d}
	shipped := func() int { return d.Coordinator().Stats().ShippedShards }
	// fullRun re-attaches when fresh is set, and otherwise drains the
	// journal behind the maintainer's back, so Maintain must run a full run.
	fullRun := func(fresh bool) *Result {
		t.Helper()
		var res *Result
		var stats MaintainStats
		var err error
		if fresh {
			res, stats, err = inc.Attach(store, 0.05)
		} else {
			store.Drain()
			res, stats, err = inc.Maintain()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !stats.FullRun {
			t.Fatalf("stats = %+v, want a full run", stats)
		}
		return res
	}
	fullRun(true)
	before := shipped()
	if before != store.NumShards() {
		t.Fatalf("attach shipped %d shards, want %d", before, store.NumShards())
	}

	// Clean full run: nothing moves.
	fullRun(true)
	if got := shipped(); got != before {
		t.Fatalf("clean full run shipped %d more shards", got-before)
	}

	// One append dirties exactly the tail shard; one delete in shard 0
	// dirties exactly shard 0. Each full run moves only those.
	if err := store.Append(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	fullRun(false)
	if got := shipped(); got != before+1 {
		t.Fatalf("append full run shipped %d shards, want 1", got-before)
	}
	before = shipped()
	if _, err := store.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	res := fullRun(false)
	if got := shipped(); got != before+1 {
		t.Fatalf("delete full run shipped %d shards, want 1", got-before)
	}

	// The store-backed result still matches a local from-scratch run.
	want, err := (&Apriori{}).Mine(store.Snapshot(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Canonical()) != string(want.Canonical()) {
		t.Error("store-backed distributed full run diverges from local Apriori")
	}

	// A plain Mine replaces the replicas under the same shard ids; the
	// next full run must not trust any of them.
	if _, err := d.Mine(store.Snapshot(), 0.05); err != nil {
		t.Fatal(err)
	}
	before = shipped()
	fullRun(true)
	if got := shipped(); got != before+store.NumShards() {
		t.Fatalf("full run after a plain Mine shipped %d shards, want all %d", got-before, store.NumShards())
	}
}

// TestIncrementalWithDistributedBase drives the maintainer with a
// Distributed Remote through appends and deletes: every maintained result
// is byte-identical to a from-scratch run, and the full re-mines triggered
// by border crossings re-ship only dirty shards.
func TestIncrementalWithDistributedBase(t *testing.T) {
	store := transactions.NewShardedDB(64)
	for i := 0; i < 256; i++ {
		if err := store.Append(i%6, 6+i%4, 10+i%2); err != nil {
			t.Fatal(err)
		}
	}
	d := newDistributed(DistEngineApriori, 2)
	defer d.Close()
	inc := &Incremental{Remote: d}
	res, _, err := inc.Attach(store, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	afterAttach := d.Coordinator().Stats().ShippedShards
	if afterAttach != store.NumShards() {
		t.Fatalf("attach shipped %d shards, want %d", afterAttach, store.NumShards())
	}
	verify := func() {
		t.Helper()
		want, err := (&Apriori{}).Mine(store.Snapshot(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Canonical()) != string(want.Canonical()) {
			t.Fatal("maintained result diverges from from-scratch run")
		}
	}
	verify()

	// A burst of appends introducing a brand-new frequent item crosses the
	// negative border, forcing a full re-mine over the cluster. Only the
	// dirtied tail shards may travel.
	for i := 0; i < 40; i++ {
		if err := store.Append(50, 51); err != nil {
			t.Fatal(err)
		}
	}
	res, stats, err := inc.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullRun {
		t.Fatalf("expected border-crossing full run, got %+v", stats)
	}
	verify()
	reshipped := d.Coordinator().Stats().ShippedShards - afterAttach
	// 40 appends into shardCap-64 shards touch at most two tail shards
	// (the partially filled one plus a new one); every other shard must
	// have been served from the workers' cached replicas.
	if reshipped < 1 || reshipped > 2 {
		t.Errorf("full re-mine re-shipped %d shards, want 1-2 (dirty tail only, %d total)",
			reshipped, store.NumShards())
	}

	// A delete in the first shard plus maintenance: if a full run happens
	// it may only re-ship that shard (and any shard the delete dirtied).
	before := d.Coordinator().Stats().ShippedShards
	if _, err := store.DeleteAt(1); err != nil {
		t.Fatal(err)
	}
	res, _, err = inc.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	verify()
	if got := d.Coordinator().Stats().ShippedShards - before; got > 1 {
		t.Errorf("post-delete maintenance re-shipped %d shards, want <= 1", got)
	}
}

// TestDistributedDegenerateInputs checks Distributed obeys the uniform
// degenerate contract like every local engine (the cross-engine table test
// covers the rest).
func TestDistributedDegenerateInputs(t *testing.T) {
	d := newDistributed(DistEngineApriori, 1)
	defer d.Close()
	res, err := d.Mine(transactions.NewDB(), 0.5)
	if !errors.Is(err, ErrEmptyDB) {
		t.Fatalf("empty db err = %v", err)
	}
	if res == nil || res.NumFrequent() != 0 {
		t.Fatalf("empty db result = %+v, want canonical empty", res)
	}
	res, err = d.Mine(randomDB(1), 0)
	if !errors.Is(err, ErrBadSupport) {
		t.Fatalf("minsup 0 err = %v", err)
	}
	if res == nil || len(res.Canonical()) != 0 {
		t.Fatalf("minsup 0 result = %+v, want canonical empty", res)
	}
}

// loopbackRPC serves n workers on loopback TCP and dials them; the
// listeners close with the test, the connections with the transport.
func loopbackRPC(t *testing.T, n int) dist.Transport {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		addrs = append(addrs, l.Addr().String())
		go dist.ServeWorker(l, dist.NewWorker())
	}
	tr, err := dist.DialRPC(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDistributedSameBytesOverEveryTransport: one codec, three ways to
// carry it. A mine returns the same Canonical bytes and the same pass
// stats whether messages pass by reference, through the in-process
// encode/decode round trip, or in frames over loopback TCP — for both
// engines, on a healthy cluster and under seeded retry/failover schedules
// (where passes may be stamped Degraded but count the same).
func TestDistributedSameBytesOverEveryTransport(t *testing.T) {
	db := deepFixture(t)
	const minSup, workers = 0.02, 2
	transports := map[string]func() dist.Transport{
		"local":        func() dist.Transport { return dist.NewLocalTransport(workers, false) },
		"local-encode": func() dist.Transport { return dist.NewLocalTransport(workers, true) },
		"rpc":          func() dist.Transport { return loopbackRPC(t, workers) },
	}
	plans := map[string]dist.FaultPlan{
		"healthy": {},
		"retries": {Seed: 5, Error: 0.3},
		// Plus a scripted kill of worker 1 on its first scan, below.
		"failover": {Seed: 11, Error: 0.1, Delay: 200 * time.Microsecond, DelayProb: 0.2},
	}
	for _, tc := range []struct {
		engine string
		local  Miner
	}{{DistEngineApriori, &Apriori{}}, {DistEngineFPGrowth, &FPGrowth{}}} {
		want, err := tc.local.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		for tname, open := range transports {
			for pname, plan := range plans {
				label := tc.engine + "/" + tname + "/" + pname
				ft := dist.NewFaultTransport(open(), plan)
				if pname == "failover" {
					ft.FailNext(1, dist.FaultNone, dist.FaultKill)
				}
				d := &Distributed{
					Transport: ft,
					Workers:   workers,
					Engine:    tc.engine,
					// No drops are injected, so no per-call deadline: a
					// slow race-detector scan must not read as a fault.
					Retry: dist.RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
				}
				got, err := d.MineContext(context.Background(), db, minSup)
				st := d.Coordinator().Stats()
				if cerr := d.Close(); cerr != nil {
					t.Fatalf("%s: close: %v", label, cerr)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// The schedules must bite, or the test shows nothing.
				if pname == "retries" && st.Retries == 0 || pname == "failover" && st.Failovers == 0 {
					t.Errorf("%s: schedule injected nothing: %+v", label, st)
				}
				if !bytes.Equal(got.Canonical(), want.Canonical()) {
					t.Errorf("%s: Canonical differs from the local engine", label)
				}
				if len(got.Passes) != len(want.Passes) {
					t.Fatalf("%s: %d passes, local engine has %d", label, len(got.Passes), len(want.Passes))
				}
				for i, p := range got.Passes {
					if pname == "healthy" && p.Degraded {
						t.Errorf("%s: pass K=%d degraded on a healthy cluster", label, p.K)
					}
					p.Degraded = false
					if p != want.Passes[i] {
						t.Errorf("%s: pass %d = %+v, local engine has %+v", label, i, p, want.Passes[i])
					}
				}
			}
		}
	}
}
