package mining

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// testRetry is the tight retry spec the facade fault tests run under.
func testRetry(seed int64) RetrySpec {
	return RetrySpec{
		MaxAttempts: 3,
		CallTimeout: 25 * time.Millisecond,
		Backoff:     200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Seed:        seed,
	}
}

// TestMineUnderFaultsByteIdentical pins the facade-level invariant: a
// mine whose transport injects a seeded schedule of drops, one-shot
// errors and sticky worker deaths — absorbed by retries, failover or
// local degradation — returns exactly the bytes of a fault-free local
// run, for both distributed strategies.
func TestMineUnderFaultsByteIdentical(t *testing.T) {
	db, _ := testData(t, 400, 31)
	for _, algo := range []string{"Apriori", "FPGrowth"} {
		want, err := Mine(context.Background(), db, Algorithm(algo), MinSupport(0.01))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			got, err := Mine(context.Background(), db,
				Algorithm(algo), MinSupport(0.01),
				Transport(LocalTransport(2)),
				Retry(testRetry(seed)),
				Faults(FaultSpec{Seed: seed, Drop: 0.02, Error: 0.1, Kill: 0.02}))
			if err != nil {
				t.Fatalf("%s seed %d: %v", algo, seed, err)
			}
			if string(got.Canonical()) != string(want.Canonical()) {
				t.Errorf("%s seed %d: faulty mine differs from local run", algo, seed)
			}
		}
	}
}

// TestMineDegradedReportsPassStat pins the degradation event: when the
// schedule partitions the cluster away mid-mine, the mine still succeeds
// (local fallback) and the Progress stream plus Result.Passes carry the
// Degraded flag.
func TestMineDegradedReportsPassStat(t *testing.T) {
	db, _ := testData(t, 300, 33)
	var sawDegraded bool
	res, err := Mine(context.Background(), db,
		Algorithm("Apriori"), MinSupport(0.01),
		Transport(LocalTransport(2)),
		Retry(testRetry(1)),
		Faults(FaultSpec{Seed: 1, PartitionAfter: 1}),
		Progress(func(p PassStat) { sawDegraded = sawDegraded || p.Degraded }))
	if err != nil {
		t.Fatalf("partitioned mine failed instead of degrading: %v", err)
	}
	if !sawDegraded {
		t.Error("no Progress event carried Degraded = true")
	}
	degradedPasses := 0
	for _, p := range res.Passes() {
		if p.Degraded {
			degradedPasses++
		}
	}
	if degradedPasses == 0 {
		t.Error("Result.Passes carries no Degraded pass")
	}
	want, err := Mine(context.Background(), db, Algorithm("Apriori"), MinSupport(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Canonical()) != string(want.Canonical()) {
		t.Error("degraded mine differs from local run")
	}
}

// TestRetryAndFaultsRequireTransport pins the option contract: both are
// distributed-backend knobs and reject configurations without Transport,
// as do malformed specs.
func TestRetryAndFaultsRequireTransport(t *testing.T) {
	db, _ := testData(t, 50, 35)
	if _, err := Mine(context.Background(), db, Retry(RetrySpec{})); !errors.Is(err, ErrBadOption) {
		t.Errorf("Retry without Transport: err = %v, want ErrBadOption", err)
	}
	if _, err := Mine(context.Background(), db, Faults(FaultSpec{})); !errors.Is(err, ErrBadOption) {
		t.Errorf("Faults without Transport: err = %v, want ErrBadOption", err)
	}
	for _, opt := range []Option{
		Retry(RetrySpec{MaxAttempts: -1}),
		Faults(FaultSpec{Drop: 1.5}),
		Faults(FaultSpec{Drop: 0.5, Error: 0.4, Kill: 0.3}),
		Faults(FaultSpec{PartitionAfter: -2}),
	} {
		if _, err := Mine(context.Background(), db, Transport(LocalTransport(1)), opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("malformed spec: err = %v, want ErrBadOption", err)
		}
	}
}

// TestSessionUnderFaults pins the stateful path: a session over a faulty
// transport attaches, absorbs the injected errors across maintains, and
// every maintained result matches a from-scratch mine of the snapshot.
// It also re-pins the Close-idempotence satellite on the session that
// owns a fault-wrapped transport.
func TestSessionUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	db, _ := testData(t, 400, 37)
	s, err := NewSession(db, MinSupport(0.01), ShardCap(128),
		Transport(LocalTransport(2)),
		Retry(testRetry(7)),
		Faults(FaultSpec{Seed: 7, Error: 0.1, Delay: 100 * time.Microsecond, DelayProb: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(1, 2, 3+i%2); err != nil {
			t.Fatal(err)
		}
		res, _, err := s.Maintain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Mine(context.Background(), s.Snapshot(), Algorithm("Apriori"), MinSupport(0.01))
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Canonical()) != string(want.Canonical()) {
			t.Fatalf("maintain %d under faults differs from from-scratch mine", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Append(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Append err = %v, want ErrClosed", err)
	}
	waitForGoroutines(t, before)
}

// TestSessionProgress pins the Progress contract of sessions: the attach
// and a border-crossing full run report their counting passes, a maintain
// that stays incremental reports none, and under a transport partitioned
// before the first full run every event of both full runs carries
// Degraded. Every result still matches a from-scratch mine.
func TestSessionProgress(t *testing.T) {
	db, tdb := testData(t, 300, 41)
	for _, partitioned := range []bool{false, true} {
		var events []PassStat
		opts := []Option{MinSupport(0.02), ShardCap(64), Progress(func(p PassStat) { events = append(events, p) })}
		if partitioned {
			opts = append(opts, Transport(LocalTransport(2)), Retry(testRetry(1)),
				Faults(FaultSpec{Seed: 1, PartitionAfter: 1}))
		}
		s, err := NewSession(db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		step := func(label string, wantFull bool) {
			t.Helper()
			label = fmt.Sprintf("partitioned=%v, %s", partitioned, label)
			events = nil
			res, stats, err := s.Maintain(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if stats.FullRun != wantFull {
				t.Fatalf("%s: stats = %+v, want FullRun %v", label, stats, wantFull)
			}
			switch {
			case !wantFull && len(events) > 0:
				t.Errorf("%s: an incremental maintain reported %d passes", label, len(events))
			case wantFull && (len(events) == 0 || events[0].K != 1):
				t.Errorf("%s: full run reported passes %+v, want one per pass from K=1", label, events)
			}
			for _, p := range events {
				if p.Degraded != partitioned {
					t.Errorf("%s: pass %+v, want Degraded %v", label, p, partitioned)
				}
			}
			want, err := Mine(context.Background(), s.Snapshot(), Algorithm("Apriori"), MinSupport(0.02))
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Canonical()) != string(want.Canonical()) {
				t.Fatalf("%s: maintained result differs from a from-scratch mine", label)
			}
		}
		step("attach", true)
		if err := s.Append(tdb.Transactions[0]...); err != nil {
			t.Fatal(err)
		}
		step("incremental maintain", false)
		for i := 0; i < 60; i++ {
			if err := s.Append(5000, 5001); err != nil {
				t.Fatal(err)
			}
		}
		step("border crossing", true)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
