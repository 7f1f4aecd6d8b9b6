package assoc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/transactions"
)

// chaosRetry is the fast-paced retry policy the fault tests run under:
// tight enough that a schedule full of drops still finishes in
// milliseconds, real enough that every layer (deadline, backoff,
// failover) is exercised.
func chaosRetry(seed int64) dist.RetryPolicy {
	return dist.RetryPolicy{
		MaxAttempts: 3,
		CallTimeout: 25 * time.Millisecond,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Seed:        seed,
	}
}

// assocWaitForGoroutines polls until the goroutine count is back to at
// most want — the chaos suite's leak check.
func assocWaitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", got, want, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosFaultSchedules is the chaos property test of the issue: for
// seeded random fault schedules (delays, drops, one-shot errors, sticky
// worker deaths) at workers 1, 2 and 4, every mine that completes is
// byte-identical to the local engine, every mine that fails (fallback
// disabled) returns an error wrapping dist.ErrNoHealthyWorkers, with the
// fallback enabled no mine fails at all, and nothing hangs or leaks.
// Schedules are deterministic per (seed, workers), so a failure replays.
func TestChaosFaultSchedules(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 6; seed++ {
		db := randomDB(seed)
		minSup := 0.1 + float64(seed%5)/20.0
		for _, engine := range []string{DistEngineApriori, DistEngineFPGrowth} {
			var local Miner
			if engine == DistEngineApriori {
				local = &Apriori{}
			} else {
				local = &FPGrowth{}
			}
			want, err := local.Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, noFallback := range []bool{false, true} {
					plan := dist.FaultPlan{
						Seed:      seed*31 + int64(workers),
						Drop:      0.04,
						Error:     0.12,
						Kill:      0.05,
						Delay:     200 * time.Microsecond,
						DelayProb: 0.1,
					}
					ft := dist.NewFaultTransport(dist.NewLocalTransport(workers, seed%2 == 0), plan)
					d := &Distributed{
						Transport:       ft,
						Workers:         workers,
						Engine:          engine,
						Retry:           chaosRetry(seed),
						NoLocalFallback: noFallback,
					}
					got, err := d.MineContext(context.Background(), db, minSup)
					switch {
					case err != nil && !noFallback:
						t.Errorf("seed %d %s workers=%d: mine failed despite local fallback: %v (injected: %+v)",
							seed, engine, workers, err, ft.Stats())
					case err != nil && !errors.Is(err, dist.ErrNoHealthyWorkers):
						t.Errorf("seed %d %s workers=%d: failure does not wrap ErrNoHealthyWorkers: %v",
							seed, engine, workers, err)
					case err == nil && !bytes.Equal(got.Canonical(), want.Canonical()):
						t.Errorf("seed %d %s workers=%d: completed mine differs from local engine (injected: %+v, coord: %+v)",
							seed, engine, workers, ft.Stats(), d.Coordinator().Stats())
					}
					if err == nil && d.Degraded() {
						for _, p := range got.Passes {
							if !p.Degraded {
								t.Errorf("seed %d %s workers=%d: degraded mine left pass K=%d unmarked",
									seed, engine, workers, p.K)
							}
						}
					}
					if cerr := d.Close(); cerr != nil {
						t.Fatalf("close: %v", cerr)
					}
				}
			}
		}
	}
	assocWaitForGoroutines(t, before)
}

// TestChaosScheduleReplays pins determinism end to end: the same seed
// produces the same injected-fault trace and the same coordinator fault
// counters, run to run.
func TestChaosScheduleReplays(t *testing.T) {
	db := randomDB(3)
	run := func() (dist.FaultStats, dist.Stats, []byte, error) {
		plan := dist.FaultPlan{Seed: 9, Drop: 0.05, Error: 0.15, Kill: 0.05}
		ft := dist.NewFaultTransport(dist.NewLocalTransport(2, false), plan)
		d := &Distributed{Transport: ft, Workers: 2, Retry: chaosRetry(9)}
		defer d.Close()
		res, err := d.MineContext(context.Background(), db, 0.2)
		var canon []byte
		if err == nil {
			canon = res.Canonical()
		}
		return ft.Stats(), d.Coordinator().Stats(), canon, err
	}
	f1, c1, r1, e1 := run()
	f2, c2, r2, e2 := run()
	if f1 != f2 {
		t.Errorf("injected-fault trace differs across replays: %+v vs %+v", f1, f2)
	}
	if c1.Retries != c2.Retries || c1.Failovers != c2.Failovers {
		t.Errorf("coordinator fault counters differ across replays: %+v vs %+v", c1, c2)
	}
	if (e1 == nil) != (e2 == nil) || !bytes.Equal(r1, r2) {
		t.Errorf("outcome differs across replays: err %v vs %v", e1, e2)
	}
}

// TestDegradesMidMine pins graceful degradation when the cluster dies
// between passes: the scripted schedule lets the shard shipping succeed
// and kills the workers on their first scan call, so the engine must
// switch to the local fallback mid-mine, finish byte-identically, flag
// every pass Degraded, and report Degraded() — the mine never fails.
func TestDegradesMidMine(t *testing.T) {
	for _, engine := range []string{DistEngineApriori, DistEngineFPGrowth} {
		for _, workers := range []int{1, 2} {
			db := randomDB(17)
			var local Miner
			if engine == DistEngineApriori {
				local = &Apriori{}
			} else {
				local = &FPGrowth{}
			}
			want, err := local.Mine(db, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			ft := dist.NewFaultTransport(dist.NewLocalTransport(workers, true), dist.FaultPlan{})
			for w := 0; w < workers; w++ {
				// One clean call (the Ship), then the sticky death.
				ft.FailNext(w, dist.FaultNone, dist.FaultKill)
			}
			d := &Distributed{Transport: ft, Workers: workers, Engine: engine, Retry: chaosRetry(1)}
			got, err := d.MineContext(context.Background(), db, 0.15)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", engine, workers, err)
			}
			if !bytes.Equal(got.Canonical(), want.Canonical()) {
				t.Errorf("%s workers=%d: degraded mine differs from local engine", engine, workers)
			}
			if !d.Degraded() {
				t.Errorf("%s workers=%d: Degraded() = false after cluster loss", engine, workers)
			}
			if len(got.Passes) == 0 {
				t.Fatalf("%s workers=%d: no passes recorded", engine, workers)
			}
			for _, p := range got.Passes {
				if !p.Degraded {
					t.Errorf("%s workers=%d: pass K=%d not marked Degraded", engine, workers, p.K)
				}
			}
			// The next mine over a live cluster would need Revive; over
			// this dead one it must degrade again, not error.
			again, err := d.MineContext(context.Background(), db, 0.15)
			if err != nil {
				t.Fatalf("%s workers=%d second mine: %v", engine, workers, err)
			}
			if !bytes.Equal(again.Canonical(), want.Canonical()) {
				t.Errorf("%s workers=%d: post-degradation re-mine differs", engine, workers)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPassStatsMatchAcrossScanSources pins what the shared drivers give by
// construction: a distributed mine records the passes its local engine
// records, field for field apart from Degraded, at workers 1, 2 and 4 —
// over a healthy cluster, and with the cluster partitioned away after the
// pass-1 scan, where pass 1 stays remote and every later pass runs (and is
// stamped) degraded. The degraded mines run their local scans on Workers
// goroutines; none may outlive its mine.
func TestPassStatsMatchAcrossScanSources(t *testing.T) {
	db := deepFixture(t)
	const minSup = 0.02
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		engine string
		local  Miner
	}{
		{DistEngineApriori, &Apriori{}},
		{DistEngineFPGrowth, &FPGrowth{}},
	} {
		want, err := tc.local.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Passes) < 3 {
			t.Fatalf("%s: fixture too shallow: %d passes", tc.engine, len(want.Passes))
		}
		for _, workers := range []int{1, 2, 4} {
			for _, partitioned := range []bool{false, true} {
				var plan dist.FaultPlan
				if partitioned {
					// Ship and the pass-1 scan are one call per worker
					// each; the first call of the second scan cuts the
					// cluster off.
					plan.PartitionAfter = 2 * workers
				}
				ft := dist.NewFaultTransport(dist.NewLocalTransport(workers, true), plan)
				// No drops are injected, so no per-call deadline: a slow
				// (race-detector) scan must not read as a lost worker.
				d := &Distributed{Transport: ft, Workers: workers, Engine: tc.engine, Retry: dist.RetryPolicy{MaxAttempts: 1}}
				got, err := d.MineContext(context.Background(), db, minSup)
				if cerr := d.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				label := fmt.Sprintf("%s workers=%d partitioned=%v", tc.engine, workers, partitioned)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(got.Canonical(), want.Canonical()) {
					t.Errorf("%s: result differs from the local engine", label)
				}
				if d.Degraded() != partitioned {
					t.Errorf("%s: Degraded() = %v", label, d.Degraded())
				}
				if len(got.Passes) != len(want.Passes) {
					t.Fatalf("%s: %d passes, local engine has %d", label, len(got.Passes), len(want.Passes))
				}
				for i, p := range got.Passes {
					if wantDegraded := partitioned && i > 0; p.Degraded != wantDegraded {
						t.Errorf("%s: pass K=%d Degraded = %v, want %v", label, p.K, p.Degraded, wantDegraded)
					}
					p.Degraded = false
					if p != want.Passes[i] {
						t.Errorf("%s: pass %d = %+v, local engine has %+v", label, i, p, want.Passes[i])
					}
				}
			}
		}
	}
	assocWaitForGoroutines(t, before)
}

// TestNoFallbackSurfacesSentinel pins the NoLocalFallback contract: the
// same cluster loss that degrade absorbs becomes a wrapped
// ErrNoHealthyWorkers, with the condemning cause still in the chain.
func TestNoFallbackSurfacesSentinel(t *testing.T) {
	db := randomDB(17)
	ft := dist.NewFaultTransport(dist.NewLocalTransport(1, false), dist.FaultPlan{})
	ft.FailNext(0, dist.FaultNone, dist.FaultKill)
	d := &Distributed{Transport: ft, Workers: 1, Retry: chaosRetry(1), NoLocalFallback: true}
	defer d.Close()
	_, err := d.MineContext(context.Background(), db, 0.15)
	if !errors.Is(err, dist.ErrNoHealthyWorkers) {
		t.Fatalf("err = %v, want ErrNoHealthyWorkers", err)
	}
	if !errors.Is(err, dist.ErrWorkerUnavailable) {
		t.Fatalf("err = %v, want the condemning ErrWorkerUnavailable in the chain", err)
	}
}

// TestIncrementalAttachUnderFaults pins the Session-facing path: an
// Incremental over a faulty Distributed Remote attaches, maintains through
// appends, and stays byte-identical to from-scratch local mining — the
// dirty-shard protocol and the retry layer composing, not fighting.
func TestIncrementalAttachUnderFaults(t *testing.T) {
	db := randomDB(11)
	store := transactions.NewShardedDBFrom(db, 8)
	ft := dist.NewFaultTransport(dist.NewLocalTransport(2, true),
		dist.FaultPlan{Seed: 5, Error: 0.15, Delay: 100 * time.Microsecond, DelayProb: 0.1})
	d := &Distributed{Transport: ft, Workers: 2, Retry: chaosRetry(5)}
	defer d.Close()
	inc := &Incremental{Remote: d, Workers: 2}

	const minSup = 0.2
	res, _, err := inc.AttachContext(context.Background(), store, minSup)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *Result, label string) {
		t.Helper()
		want, err := (&Apriori{}).Mine(store.Snapshot(), minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Canonical(), want.Canonical()) {
			t.Errorf("%s: maintained result differs from from-scratch local mine (injected: %+v)", label, ft.Stats())
		}
	}
	check(res, "attach")
	for i := 0; i < 3; i++ {
		if err := store.Append(i%3, 3+i%2, 6); err != nil {
			t.Fatal(err)
		}
		res, _, err = inc.MaintainContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(res, "maintain")
	}
	if s := ft.Stats(); s.Errored == 0 {
		t.Log("schedule injected no errors; consider a different seed") // informational, keeps the test honest
	}
}
