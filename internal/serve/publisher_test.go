package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/synth"
	"repro/internal/wal"
	"repro/mining"
)

// TestPublisherContract pins the hand-off between the ingest goroutine
// and the publisher. A scripted append/delete stream runs through a
// durable server that maintains every n applied ops, with Flushes at
// arbitrary points, while one reader polls View(). A durable Enqueue
// returns only once its op is applied, so a lone writer's ops are applied
// one batch each, and a Maintain starts after exactly n of them since the
// last Maintain or Flush. The contract:
//   - the views the reader sees have strictly increasing versions;
//   - each view's Ops() is a Flush point or n, 2n, ... ops past the last
//     one (TestOracle checks each view's contents against the reference);
//   - Flush returns a view whose Ops() equals the ops acked so far, and
//     every handed-off Maintain is published: none is coalesced away;
//   - Close with a publish in flight publishes it and leaks no goroutine.
func TestPublisherContract(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	const n = 7
	rng := rand.New(rand.NewSource(30))
	initial := fixtureRows(120, 18, 30)
	srv := newTestServer(t, initial, Config{FS: wal.NewMemFS(), MaintainAfter: n})

	type observation struct{ version, ops uint64 }
	var (
		observed []observation // reader-owned until wg.Wait
		seen     atomic.Uint64 // the newest version the reader observed
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last *View
		for !stop.Load() {
			v := srv.View()
			if v == last {
				runtime.Gosched()
				continue
			}
			if last != nil && v.Version() <= last.Version() {
				t.Errorf("version %d observed after version %d", v.Version(), last.Version())
				return
			}
			last = v
			observed = append(observed, observation{v.Version(), v.Ops()})
			seen.Store(v.Version())
		}
	}()

	ctx := context.Background()
	live := len(initial)
	var opLog []Op
	flushPoints := map[uint64]bool{0: true} // New publishes at op 0
	dirty, maintains := 0, uint64(1)        // New's publish is the first
	flush := func() {
		t.Helper()
		v, err := srv.Flush(ctx)
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if v.Ops() != uint64(len(opLog)) {
			t.Fatalf("Flush after %d acked ops returned a view at %d", len(opLog), v.Ops())
		}
		if dirty > 0 {
			maintains++
		}
		dirty = 0
		flushPoints[v.Ops()] = true
		// Nothing publishes until the next op: let the reader see this view.
		for deadline := time.Now().Add(5 * time.Second); seen.Load() < v.Version() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	for len(opLog) < 300 {
		op := Op{Kind: OpAppend, Items: []int{rng.Intn(18), rng.Intn(18), rng.Intn(18)}}
		if live > 100 && rng.Intn(2) == 0 {
			op = Op{Kind: OpDelete, TID: rng.Intn(live)}
		}
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		opLog = append(opLog, op)
		if op.Kind == OpAppend {
			live++
		} else {
			live--
		}
		if dirty++; dirty == n {
			dirty = 0
			maintains++
		}
		if rng.Intn(40) == 0 {
			flush()
		}
	}
	flush()
	if got := srv.Stats().Maintains; got != maintains {
		t.Errorf("Stats().Maintains = %d after %d hand-offs", got, maintains)
	}

	// Close right after the op that hands a Maintain off: its view is
	// published before Close returns.
	for i := 0; i < n; i++ {
		op := Op{Kind: OpAppend, Items: []int{1, 2, 3}}
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		opLog = append(opLog, op)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if v := srv.View(); v.Ops() != uint64(len(opLog)) {
		t.Errorf("after Close the view is at op %d, want the in-flight publish at %d", v.Ops(), len(opLog))
	}
	stop.Store(true)
	wg.Wait()

	if len(observed) < 3 {
		t.Fatalf("the reader saw only %d views", len(observed))
	}
	points := make([]uint64, 0, len(flushPoints))
	for p := range flushPoints {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, obs := range observed {
		last := points[sort.Search(len(points), func(i int) bool { return points[i] > obs.ops })-1]
		if !flushPoints[obs.ops] && (obs.ops-last)%n != 0 {
			t.Errorf("version %d at op %d: neither a Flush point nor a multiple of %d past the one at %d", obs.version, obs.ops, n, last)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore {
		t.Errorf("goroutine leak: %d before, %d after", goroutinesBefore, got)
	}
}

// BenchmarkPublish times what the publisher derives for one view: the
// rules at the 0.3 floor and the query index over them, from a result
// maintained after a 128-append + 128-delete slide of a 20k-row Quest
// T10.I4 store at 0.2 % support.
func BenchmarkPublish(b *testing.B) {
	const rows, slide = 20000, 128
	db, err := synth.Baskets(synth.T10I4(rows+slide, 1996))
	if err != nil {
		b.Fatal(err)
	}
	txs := make([][]int, len(db.Transactions))
	for i, tx := range db.Transactions {
		txs[i] = tx
	}
	sess, err := mining.NewSession(mustDB(b, txs[:rows]), mining.MinSupport(0.002), mining.Workers(2))
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if _, _, err := sess.Maintain(ctx); err != nil {
		b.Fatal(err)
	}
	for _, tx := range txs[rows:] {
		if err := sess.Append(tx...); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.DeleteAt(0); err != nil {
			b.Fatal(err)
		}
	}
	res, _, err := sess.Maintain(ctx)
	if err != nil {
		b.Fatal(err)
	}
	var scratch rankScratch // the publisher's, reused across publishes
	b.ReportAllocs()
	for b.Loop() {
		rules, err := res.Rules(0.3)
		if err != nil {
			b.Fatal(err)
		}
		if ix := newQueryIndex(rules, &scratch); len(ix.bySupport) != len(rules) || len(rules) == 0 {
			b.Fatalf("%d rules, %d indexed", len(rules), len(ix.bySupport))
		}
	}
}
