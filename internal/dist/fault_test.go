package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/transactions"
)

// waitForGoroutines polls until the goroutine count is back to at most
// want, dumping stacks on timeout — the leak check for abandoned calls.
func waitForGoroutines(t *testing.T, want int) {
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

// TestBackoffDeterministicAndCapped pins the retry pacing: backoffs
// replay exactly for a given seed, stay within [step/2, step), grow with
// the retry number, and saturate at MaxBackoff.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 4 * time.Millisecond, MaxBackoff: 16 * time.Millisecond, Seed: 7}
	step := p.BaseBackoff
	for retry := 1; retry <= 6; retry++ {
		a, b := p.Backoff(2, retry), p.Backoff(2, retry)
		if a != b {
			t.Fatalf("retry %d: backoff not deterministic: %v vs %v", retry, a, b)
		}
		if a < step/2 || a >= step {
			t.Errorf("retry %d: backoff %v outside [%v, %v)", retry, a, step/2, step)
		}
		if step < p.MaxBackoff {
			step *= 2
		}
		if step > p.MaxBackoff {
			step = p.MaxBackoff
		}
	}
	if p.Backoff(0, 1) == p.Backoff(1, 1) {
		t.Error("distinct workers drew identical jitter; seeds are not de-synchronising")
	}
	if (RetryPolicy{}).Backoff(0, 1) <= 0 {
		t.Error("zero-value policy produced a non-positive backoff")
	}
}

// TestRetryableClassification pins the error taxonomy: transport-level
// sentinels retry, application errors do not.
func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{
		ErrWorkerUnavailable,
		ErrCallTimeout,
		fmt.Errorf("wrapped: %w", ErrWorkerUnavailable),
		fmt.Errorf("%w: worker 3 CountItems exceeded 5ms", ErrCallTimeout),
	} {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{nil, ErrNoShard, ErrBadMethod, ErrClosed, ErrNoHealthyWorkers, context.Canceled, errors.New("boom")} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

// TestRetryRecoversFromOneShotError pins the retry loop: a single
// injected connection blip on a scan call is absorbed by a retry, the
// counts stay exact, and the retry is visible in Stats.
func TestRetryRecoversFromOneShotError(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(2, false), FaultPlan{})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	if err := c.Sync(ctx, testShards(db, 4, 1)); err != nil {
		t.Fatal(err)
	}
	ft.FailNext(0, FaultErr)
	ft.FailNext(1, FaultErr)
	got, err := c.CountItems(ctx, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	want := localCounts(db)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("count[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if s := c.Stats(); s.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", s.Retries)
	}
	if s := ft.Stats(); s.Errored != 2 {
		t.Errorf("injected errors = %d, want 2", s.Errored)
	}
}

// TestFailoverReshipsToSurvivor pins failover end to end: a sticky worker
// death mid-mine moves its shards to the survivor, re-ships them from
// the retained payloads, and the scan still returns the exact counts.
func TestFailoverReshipsToSurvivor(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(2, true), FaultPlan{})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	if err := c.Sync(ctx, testShards(db, 4, 1)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	ft.KillWorker(1)
	got, err := c.CountItems(ctx, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	want := localCounts(db)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("count[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	after := c.Stats()
	if after.Failovers != 1 || after.WorkersDown != 1 {
		t.Errorf("Failovers = %d, WorkersDown = %d, want 1 and 1", after.Failovers, after.WorkersDown)
	}
	if after.ShippedShards <= before.ShippedShards {
		t.Error("failover did not re-ship the dead worker's shards")
	}
	// A later pass keeps working on the survivor without re-shipping.
	mid := c.Stats()
	if _, err := c.CountItems(ctx, db.NumItems()); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.ShippedShards != mid.ShippedShards {
		t.Error("healthy re-scan re-shipped shards")
	}
}

// TestAllWorkersDownSentinel pins total failure: once every worker is
// dead, scans and syncs fail with a wrapped ErrNoHealthyWorkers and
// never a partial result, and Revive restores the coordinator.
func TestAllWorkersDownSentinel(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(2, false), FaultPlan{})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	shards := testShards(db, 4, 1)
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	ft.KillWorker(0)
	ft.KillWorker(1)
	counts, err := c.CountItems(ctx, db.NumItems())
	if !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("err = %v, want ErrNoHealthyWorkers", err)
	}
	if counts != nil {
		t.Fatal("failed scan returned a (partial) count buffer")
	}
	if err := c.Sync(ctx, shards); !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("sync err = %v, want ErrNoHealthyWorkers", err)
	}
	// Down markers survive Reset (health is transport-scoped)...
	c.Reset()
	if err := c.Sync(ctx, shards); !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("post-reset sync err = %v, want ErrNoHealthyWorkers", err)
	}
	// ...but Revive clears them; with the injected deaths sticky the
	// calls still fail unavailable, proving revival is a probe, not a lie.
	c.Revive()
	if s := c.Stats(); s.WorkersDown != 0 {
		t.Errorf("WorkersDown after Revive = %d, want 0", s.WorkersDown)
	}
	if err := c.Sync(ctx, shards); !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("revived-but-dead sync err = %v, want ErrNoHealthyWorkers", err)
	}
}

// TestDropTimesOutAndRetries pins the deadline path: a dropped reply
// burns exactly the per-call timeout, surfaces as ErrCallTimeout when
// attempts run out, and is absorbed when a retry remains.
func TestDropTimesOutAndRetries(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(1, false), FaultPlan{})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 1, CallTimeout: 20 * time.Millisecond})
	if err := c.Sync(ctx, testShards(db, 2, 1)); err != nil {
		t.Fatal(err)
	}
	ft.FailNext(0, FaultDrop)
	if _, err := c.CountItems(ctx, db.NumItems()); !errors.Is(err, ErrNoHealthyWorkers) || !errors.Is(err, ErrCallTimeout) {
		// With one attempt and one worker the timeout escalates through
		// failover to total failure; both sentinels must be in the chain.
		t.Fatalf("err = %v, want ErrNoHealthyWorkers wrapping ErrCallTimeout", err)
	}
	// With a fresh coordinator and two attempts the same drop is absorbed.
	ft2 := NewFaultTransport(NewLocalTransport(1, false), FaultPlan{})
	defer ft2.Close()
	c2 := NewCoordinator(ft2)
	c2.SetRetry(RetryPolicy{MaxAttempts: 2, CallTimeout: 20 * time.Millisecond, BaseBackoff: 100 * time.Microsecond})
	if err := c2.Sync(ctx, testShards(db, 2, 1)); err != nil {
		t.Fatal(err)
	}
	ft2.FailNext(0, FaultDrop)
	got, err := c2.CountItems(ctx, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	want := localCounts(db)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("count[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestParentCancellationIsNotRetried pins that the caller's own
// cancellation wins over the retry loop: no sentinel wrapping, no extra
// attempts, just ctx.Err back.
func TestParentCancellationIsNotRetried(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(1, false), FaultPlan{})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 5, CallTimeout: time.Second})
	if err := c.Sync(ctx, testShards(db, 2, 1)); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	ft.FailNext(0, FaultDrop)
	_, err := c.CountItems(cctx, db.NumItems())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := c.Stats(); s.Retries != 0 {
		t.Errorf("Retries = %d after parent cancellation, want 0", s.Retries)
	}
}

// TestFaultPlanDeterministic pins the schedule's replayability: the same
// plan produces the same draw sequence, and a different seed a different
// one.
func TestFaultPlanDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.1, Error: 0.2, Kill: 0.05, Delay: time.Millisecond, DelayProb: 0.3}
	var a, b []FaultKind
	for idx := 0; idx < 200; idx++ {
		ka, _ := plan.decide(1, idx)
		kb, _ := plan.decide(1, idx)
		a, b = append(a, ka), append(b, kb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs on replay: %v vs %v", i, a[i], b[i])
		}
	}
	other := plan
	other.Seed = 43
	same := true
	for idx := 0; idx < 200 && same; idx++ {
		ka, _ := plan.decide(1, idx)
		kb, _ := other.decide(1, idx)
		same = ka == kb
	}
	if same {
		t.Error("seeds 42 and 43 drew identical 200-call schedules")
	}
}

// TestFaultTransportPartition pins PartitionAfter: once the call budget
// is spent every worker is dead and calls fail unavailable.
func TestFaultTransportPartition(t *testing.T) {
	db := testDB(t)
	ft := NewFaultTransport(NewLocalTransport(2, false), FaultPlan{PartitionAfter: 3})
	defer ft.Close()
	c := NewCoordinator(ft)
	c.SetRetry(RetryPolicy{MaxAttempts: 1, BaseBackoff: 100 * time.Microsecond})
	if err := c.Sync(ctx, testShards(db, 4, 1)); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, lastErr = c.CountItems(ctx, db.NumItems()); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoHealthyWorkers) {
		t.Fatalf("err after partition = %v, want ErrNoHealthyWorkers", lastErr)
	}
	if s := ft.Stats(); !s.Partitioned {
		t.Error("partition never fired")
	}
}

// TestLocalTransportAbandonedCallsLeakNothing is the satellite audit
// test: hammering one worker with calls abandoned at random points (some
// before the send, some mid-dispatch) leaves no goroutine behind once
// the transport closes, because the buffered done channel absorbs every
// late reply.
func TestLocalTransportAbandonedCallsLeakNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	db := testDB(t)
	tr := NewLocalTransport(2, false)
	shards := testShards(db, 2, 1)
	for w := 0; w < 2; w++ {
		if err := tr.Call(ctx, w, MethodShip, &ShipArgs{Shards: shards[w : w+1]}, &ShipReply{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, time.Duration(i%7)*50*time.Microsecond)
			defer cancel()
			var reply CountsReply
			err := tr.Call(cctx, i%2, MethodCountItems, &CountItemsArgs{ShardIDs: []int{i % 2}, NumItems: db.NumItems()}, &reply)
			if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrClosed) {
				t.Errorf("call %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}

// TestAbandonedCallFreesItsWorker reruns the probe that found workers
// counting on after their caller gave up: one worker holds 200,000 rows
// of 12 items out of 60 and is asked for all 34,220 3-candidates, a count
// of about 200 ms, under a 5 ms deadline. The next call to that worker
// must start within 25 ms of the abandoned one returning, in both modes;
// a worker that does not see ctx keeps it queued for the rest of the
// count.
func TestAbandonedCallFreesItsWorker(t *testing.T) {
	const items, width = 60, 12
	rng := rand.New(rand.NewSource(43))
	perm := make([]int, items)
	for i := range perm {
		perm[i] = i
	}
	rows := make([]transactions.Itemset, 200_000)
	for i := range rows {
		for j := 0; j < width; j++ {
			k := j + rng.Intn(items-j)
			perm[j], perm[k] = perm[k], perm[j]
		}
		rows[i] = slices.Sorted(slices.Values(perm[:width]))
	}
	var cands []transactions.Itemset
	for a := 0; a < items; a++ {
		for b := a + 1; b < items; b++ {
			for c := b + 1; c < items; c++ {
				cands = append(cands, transactions.Itemset{a, b, c})
			}
		}
	}
	for _, encode := range []bool{false, true} {
		tr := NewLocalTransport(1, encode)
		if err := tr.Call(ctx, 0, MethodShip, &ShipArgs{Shards: []ShardPayload{{ID: 0, Version: 1, Txs: rows}}}, new(ShipReply)); err != nil {
			t.Fatal(err)
		}
		abandoned, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
		err := tr.Call(abandoned, 0, MethodCountCandidates, &CountCandidatesArgs{ShardIDs: []int{0}, K: 3, Candidates: cands}, new(CountsReply))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("encode=%v: counting %d candidates under a 5 ms deadline: err = %v", encode, len(cands), err)
		}
		// A pass-1 call over no shards costs nothing once it starts, so
		// its latency is the time it queued behind the abandoned count.
		start := time.Now()
		if err := tr.Call(ctx, 0, MethodCountItems, &CountItemsArgs{NumItems: items}, new(CountsReply)); err != nil {
			t.Fatal(err)
		}
		if wait := time.Since(start); wait > 25*time.Millisecond {
			t.Errorf("encode=%v: the next call waited %v behind an abandoned count, want at most 25ms", encode, wait)
		}
		tr.Close()
	}
}

// TestTransportCloseSemantics is the satellite contract test: Close is
// idempotent on the fault wrapper and on the local transport beneath it,
// and post-Close calls fail with ErrClosed.
func TestTransportCloseSemantics(t *testing.T) {
	// FaultTransport wraps the local one; Close must pass through and
	// stay idempotent.
	ft := NewFaultTransport(NewLocalTransport(1, false), FaultPlan{})
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ft.Close(); err != nil {
		t.Fatalf("second fault-transport close: %v", err)
	}
	if err := ft.Call(ctx, 0, MethodShip, &ShipArgs{}, &ShipReply{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("fault post-close err = %v, want ErrClosed", err)
	}
}
