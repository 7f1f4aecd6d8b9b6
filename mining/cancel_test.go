package mining

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count is back to at most
// want, dumping stacks on timeout — the leak check of the cancellation
// contract.
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

// TestCancelMidMine is the cancellation property test of the issue: for
// every backend (each registered engine and the distributed one) at
// workers 1 and 4, cancelling mid-pass (from the first Progress event, so
// the mine is provably underway) returns context.Canceled promptly and
// leaks no goroutines.
func TestCancelMidMine(t *testing.T) {
	db, _ := testData(t, 2000, 21)
	for _, workers := range []int{1, 4} {
		for _, b := range backends(workers) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			start := time.Now()
			res, err := Mine(ctx, db, append([]Option{MinSupport(0.01),
				Progress(func(PassStat) { cancel() })}, b.opts...)...)
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: err = %v (res=%v), want context.Canceled", b.name, workers, err, res)
			}
			if elapsed > 5*time.Second {
				t.Errorf("%s workers=%d: cancellation took %v", b.name, workers, elapsed)
			}
			waitForGoroutines(t, before)
		}
	}
}

// TestCancelBeforeMine pins the fast path: an already-cancelled context
// returns context.Canceled from every backend without scanning anything,
// and a distributed mine leaves no transport worker running.
func TestCancelBeforeMine(t *testing.T) {
	db, _ := testData(t, 200, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for _, b := range backends(workers) {
			before := runtime.NumGoroutine()
			if _, err := Mine(ctx, db, append([]Option{MinSupport(0.01)}, b.opts...)...); !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: err = %v, want context.Canceled", b.name, workers, err)
			}
			waitForGoroutines(t, before)
		}
	}
}

// TestCancelSession pins Session cancellation: a cancelled Maintain
// returns context.Canceled, leaves the session consistent, and the next
// Maintain under a live context succeeds with the exact answer.
func TestCancelSession(t *testing.T) {
	db, _ := testData(t, 1500, 25)
	s, err := NewSession(db, MinSupport(0.002), ShardCap(128), Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Mine(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled attach: err = %v, want context.Canceled", err)
	}
	res, err := s.Mine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(context.Background(), db, Algorithm("Apriori"), MinSupport(0.002))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Canonical()) != string(want.Canonical()) {
		t.Fatal("post-cancel attach differs from a from-scratch run")
	}

	// Cancel an incremental maintain mid-flight, then recover.
	if err := s.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Maintain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled maintain: err = %v, want context.Canceled", err)
	}
	if _, _, err := s.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMineStream pins that a context cancelled between levels
// surfaces as the stream's final error.
func TestCancelMineStream(t *testing.T) {
	db, _ := testData(t, 1000, 27)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawCancel := false
	for level, err := range MineStream(ctx, db, Algorithm("Apriori"), MinSupport(0.002)) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stream error = %v, want context.Canceled", err)
			}
			sawCancel = true
			break
		}
		if level.K == 1 {
			cancel()
		}
	}
	if !sawCancel {
		t.Fatal("stream finished without surfacing the cancellation")
	}
	waitForGoroutines(t, before)
}

// TestMineStreamPanicLeaksNothing pins that a consumer whose loop body
// panics leaves no goroutine behind, for every backend at workers 1 and 4.
// At level 1 the body waits up to 200 ms for pass 2's Progress event and
// then panics: an engine that went on mining while the consumer held
// level 1 would report pass 2 and then wait forever to hand over level 2.
func TestMineStreamPanicLeaksNothing(t *testing.T) {
	db, _ := testData(t, 500, 5)
	for _, workers := range []int{1, 4} {
		for _, b := range backends(workers) {
			before := runtime.NumGoroutine()
			pass2 := make(chan struct{}, 1)
			opts := append([]Option{MinSupport(0.005), Progress(func(s PassStat) {
				if s.K == 2 {
					select {
					case pass2 <- struct{}{}:
					default:
					}
				}
			})}, b.opts...)
			func() {
				defer func() {
					if r := recover(); r != "consumer gives up" {
						t.Errorf("%s workers=%d: recovered %v, want the consumer's panic", b.name, workers, r)
					}
				}()
				for level, err := range MineStream(context.Background(), db, opts...) {
					if err != nil {
						panic(err)
					}
					if level.K == 1 {
						select {
						case <-pass2:
						case <-time.After(200 * time.Millisecond):
						}
						panic("consumer gives up")
					}
				}
			}()
			waitForGoroutines(t, before)
		}
	}
}
