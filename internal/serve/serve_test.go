package serve

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/mining"
)

// testMinSup and testFloor are the thresholds every serve test mines at.
const (
	testMinSup = 0.05
	testFloor  = 0.2
)

// manualTrigger is a MaintainAfter value no test reaches, so Maintain
// runs only when a test calls Flush — the deterministic trigger.
const manualTrigger = 1 << 30

// fixtureRows builds a deterministic correlated workload: item pairs
// (2i, 2i+1) co-occur often, plus uniform noise.
func fixtureRows(n, items int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, n)
	for i := range rows {
		var row []int
		pair := rng.Intn(items/2) * 2
		row = append(row, pair, pair+1)
		for j := 0; j < 3; j++ {
			row = append(row, rng.Intn(items))
		}
		rows[i] = row
	}
	return rows
}

// mustDB wraps mining.NewDB.
func mustDB(t testing.TB, rows [][]int) *mining.DB {
	t.Helper()
	db, err := mining.NewDB(rows)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

// newTestServer builds a server over rows with the manual maintain
// trigger and registers cleanup.
func newTestServer(t *testing.T, rows [][]int, cfg Config) *Server {
	t.Helper()
	if cfg.MinSupport == 0 {
		cfg.MinSupport = testMinSup
	}
	if cfg.RuleFloor == 0 {
		cfg.RuleFloor = testFloor
	}
	if cfg.MaintainAfter == 0 {
		cfg.MaintainAfter = manualTrigger
	}
	var db *mining.DB
	if len(rows) > 0 {
		db = mustDB(t, rows)
	}
	srv, err := New(db, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// refFold replays ops for the oracle (internal/oracle) serve tests check
// views against; neither shares code with production. A negative-item
// append or an out-of-range delete changes nothing but keeps its place.
func refFold(rows [][]int, ops []Op) [][]int {
	out := slices.Clone(rows)
	for _, op := range ops {
		if op.Kind == OpAppend && !slices.ContainsFunc(op.Items, func(it int) bool { return it < 0 }) {
			out = append(out, op.Items)
		} else if op.Kind == OpDelete && op.TID >= 0 && op.TID < len(out) {
			out = slices.Delete(out, op.TID, op.TID+1)
		}
	}
	return out
}

// refSubset reports small ⊆ big.
func refSubset(small, big []int) bool {
	return !slices.ContainsFunc(small, func(it int) bool { return !slices.Contains(big, it) })
}

func TestInitialPublish(t *testing.T) {
	rows := fixtureRows(200, 20, 1)
	srv := newTestServer(t, rows, Config{})
	v := srv.View()
	if v.Version() != 1 {
		t.Fatalf("initial view version = %d, want 1", v.Version())
	}
	if v.Ops() != 0 {
		t.Fatalf("initial view ops = %d, want 0", v.Ops())
	}
	if v.NumTx() != len(rows) {
		t.Fatalf("NumTx = %d, want %d", v.NumTx(), len(rows))
	}
}

func TestEmptyStartAndIngest(t *testing.T) {
	srv := newTestServer(t, nil, Config{})
	v := srv.View()
	if v.Version() != 0 || v.res != nil {
		t.Fatalf("empty server start: version %d empty %v, want 0/true", v.Version(), v.res == nil)
	}
	if _, ok := v.Support(1); ok {
		t.Fatal("empty view reported a frequent itemset")
	}
	ctx := context.Background()
	rows := fixtureRows(150, 16, 2)
	for _, row := range rows {
		if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: row}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	v2, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v2.Version() == 0 || v2.res == nil {
		t.Fatalf("post-ingest view version %d empty %v", v2.Version(), v2.res == nil)
	}
	if v2.Ops() != uint64(len(rows)) {
		t.Fatalf("view ops = %d, want %d", v2.Ops(), len(rows))
	}
}

func TestDeleteToEmptyPublishesEmptyView(t *testing.T) {
	rows := fixtureRows(3, 8, 3)
	srv := newTestServer(t, rows, Config{})
	ctx := context.Background()
	for i := 0; i < len(rows); i++ {
		if err := srv.Enqueue(ctx, Op{Kind: OpDelete, TID: 0}); err != nil {
			t.Fatalf("Enqueue delete: %v", err)
		}
	}
	v, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v.res != nil || v.NumTx() != 0 {
		t.Fatalf("drained store: view empty=%v numTx=%d, want empty", v.res == nil, v.NumTx())
	}
	if len(v.Rules()) != 0 || v.Canonical() != nil {
		t.Fatal("drained store still serves rules")
	}
	if v.Version() < 2 {
		t.Fatalf("drained store did not publish a new version: %d", v.Version())
	}
}

func TestIngestErrorsCountedAndSkipped(t *testing.T) {
	rows := fixtureRows(50, 12, 4)
	srv := newTestServer(t, rows, Config{})
	ctx := context.Background()
	// An out-of-range delete and a negative-item append are both rejected
	// by the store but still advance the op sequence.
	bad := []Op{
		{Kind: OpDelete, TID: 10_000},
		{Kind: OpAppend, Items: []int{-1, 2}},
		{Kind: OpKind(99)},
	}
	for _, op := range bad {
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{1, 2, 3}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	v, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v.Ops() != 4 {
		t.Fatalf("ops consumed = %d, want 4 (errors advance the sequence)", v.Ops())
	}
	if v.NumTx() != len(rows)+1 {
		t.Fatalf("NumTx = %d, want %d (only the good append applied)", v.NumTx(), len(rows)+1)
	}
	if got := srv.Stats().IngestErrors; got != uint64(len(bad)) {
		t.Fatalf("IngestErrors = %d, want %d", got, len(bad))
	}
}

func TestFlushWithoutChangesKeepsVersion(t *testing.T) {
	srv := newTestServer(t, fixtureRows(60, 12, 5), Config{})
	ctx := context.Background()
	v1, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	v2, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v1.Version() != 1 || v2.Version() != 1 {
		t.Fatalf("no-op flushes bumped the version: %d, %d", v1.Version(), v2.Version())
	}
}

func TestMaintainAfterThreshold(t *testing.T) {
	srv := newTestServer(t, fixtureRows(80, 12, 6), Config{MaintainAfter: 5})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{1, 2, 3}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.View().Version() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := srv.View(); v.Version() < 2 {
		t.Fatalf("dirty threshold never triggered a publish (version %d)", v.Version())
	}
}

func TestMaintainEveryTimer(t *testing.T) {
	srv := newTestServer(t, fixtureRows(80, 12, 7), Config{MaintainEvery: 5 * time.Millisecond})
	ctx := context.Background()
	if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{4, 5, 6}}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.View().Version() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := srv.View(); v.Version() < 2 {
		t.Fatalf("timer never triggered a publish (version %d)", v.Version())
	}
}

func TestCloseIsIdempotentAndFailsFurtherUse(t *testing.T) {
	srv := newTestServer(t, fixtureRows(40, 10, 8), Config{})
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ctx := context.Background()
	if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{1}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrServerClosed", err)
	}
	if _, err := srv.Flush(ctx); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Flush after Close = %v, want ErrServerClosed", err)
	}
	// Queries still serve the last published view after Close.
	if v := srv.View(); v.Version() != 1 {
		t.Fatalf("view after Close: version %d, want 1", v.Version())
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{RuleFloor: -0.1},
		{RuleFloor: 1.5},
		{QueueSize: -1},
		{MaintainAfter: -2},
		{MaintainEvery: -time.Second},
	}
	for _, cfg := range cases {
		if _, err := New(nil, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("New(%+v) = %v, want ErrBadConfig", cfg, err)
		}
	}
	if _, err := New(nil, Config{Options: []mining.Option{mining.Workers(-1)}}); err == nil {
		t.Error("New with an invalid mining option did not fail")
	}
}

// TestSnapshotSwapProperty is the concurrency property test of the
// copy-on-write publish: readers spin on the view and the query paths
// while the writer runs Enqueue/Flush cycles. Two loads of one version
// must agree, versions must be monotone per reader, every HTTP response
// must carry the (version, num_tx) of one published view, and nothing may
// leak; TestOracle checks the views' contents. CI runs it under -race.
func TestSnapshotSwapProperty(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	const (
		readers = 4
		rounds  = 20
	)
	rng := rand.New(rand.NewSource(42))
	initial := fixtureRows(100, 18, 42)
	srv := newTestServer(t, initial, Config{CacheSize: 64})

	type observation struct {
		ops   uint64
		canon string
	}
	var (
		obsMu    sync.Mutex
		observed = map[uint64]observation{} // version → first observation
	)
	record := func(v *View) {
		obsMu.Lock()
		defer obsMu.Unlock()
		prev, ok := observed[v.Version()]
		if !ok {
			observed[v.Version()] = observation{ops: v.Ops(), canon: string(v.Canonical())}
			return
		}
		// Two loads of the same version must agree in every field —
		// the immutability half of the contract.
		if prev.ops != v.Ops() || prev.canon != string(v.Canonical()) {
			t.Errorf("version %d observed with two different contents", v.Version())
		}
	}

	// answered collects the (version, num_tx) pairs of wire responses:
	// each must belong to one published view, whatever was published while
	// the request ran.
	answered := map[uint64]int{}
	recordAnswer := func(version uint64, numTx int) {
		obsMu.Lock()
		defer obsMu.Unlock()
		if prev, ok := answered[version]; ok && prev != numTx {
			t.Errorf("version %d answered with num_tx %d and %d", version, prev, numTx)
		}
		answered[version] = numTx
	}
	handler := srv.Handler()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			var last uint64
			for !stop.Load() {
				v := srv.View()
				if v.Version() < last {
					t.Errorf("reader saw version go backwards: %d after %d", v.Version(), last)
					return
				}
				last = v.Version()
				record(v)
				// Exercise the cached query paths too; the version they
				// report must also be monotone for this reader.
				var qv uint64
				var err error
				switch rrng.Intn(5) {
				case 0:
					_, qv, err = srv.TopRules(RulesQuery{K: 5, By: BySupport})
				case 1:
					_, qv, err = srv.Recommend([]int{rrng.Intn(18)}, 3)
				case 2, 3:
					url := "/v1/rules?k=5&by=lift"
					if rrng.Intn(2) == 0 {
						url = "/v1/recommend?k=3&items=" + strconv.Itoa(rrng.Intn(18))
					}
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					var body rulesResponse
					if err = json.Unmarshal(rec.Body.Bytes(), &body); err == nil {
						qv = body.Version
						recordAnswer(body.Version, body.NumTx)
					}
				default:
					res, serr := srv.ItemsetSupport(rrng.Intn(18))
					qv, err = res.Version, serr
				}
				if err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
				if qv < last {
					t.Errorf("query served version %d after reader saw %d", qv, last)
					return
				}
				last = qv
			}
		}(int64(1000 + r))
	}

	// The writer: random append/delete batches, Flush after each batch.
	// Flush is the only publisher here, so published ends up holding the
	// size of every version a reader can have been answered from.
	live := len(initial)
	ctx := context.Background()
	published := map[uint64]int{1: len(initial)}
	for round := 0; round < rounds; round++ {
		batch := 1 + rng.Intn(6)
		for i := 0; i < batch; i++ {
			var op Op
			if live > 40 && rng.Float64() < 0.25 {
				op, live = Op{Kind: OpDelete, TID: rng.Intn(live)}, live-1
			} else {
				row := []int{rng.Intn(18), rng.Intn(18), rng.Intn(18), rng.Intn(18)}
				op, live = Op{Kind: OpAppend, Items: row}, live+1
			}
			if err := srv.Enqueue(ctx, op); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
		}
		v, err := srv.Flush(ctx)
		if err != nil {
			t.Fatalf("Flush round %d: %v", round, err)
		}
		published[v.Version()] = v.NumTx()
	}
	stop.Store(true)
	wg.Wait()

	if len(answered) == 0 {
		t.Fatal("no wire response was recorded")
	}
	for version, numTx := range answered {
		if want, ok := published[version]; !ok || want != numTx {
			t.Errorf("a response paired version %d with num_tx %d; that view has %d (published: %v)", version, numTx, want, ok)
		}
	}

	// A later version never covers fewer ops.
	versions := slices.Sorted(maps.Keys(observed))
	if len(versions) == 0 {
		t.Fatal("readers observed no versions at all")
	}
	for i := 1; i < len(versions); i++ {
		if prev, cur := observed[versions[i-1]], observed[versions[i]]; cur.ops < prev.ops {
			t.Errorf("version %d has ops %d < version %d's %d (non-monotone publish)", versions[i], cur.ops, versions[i-1], prev.ops)
		}
	}

	// Goroutine-leak check: after Close everything the server started
	// must be gone.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore {
		t.Errorf("goroutine leak: %d before, %d after", goroutinesBefore, got)
	}
}

// TestConcurrentSupportReaders has eight readers answer support and
// canonical queries from one published view at once. The store holds
// single-item rows, so the view has no frequent pair and rule generation
// never looked a support up before publishing: whatever the readers share
// is first touched by them, which the race detector then sees. Every
// answer must match the reference.
func TestConcurrentSupportReaders(t *testing.T) {
	rows := make([][]int, 200)
	for i := range rows {
		rows[i] = []int{i % 5}
	}
	srv := newTestServer(t, rows, Config{})
	if n := len(srv.View().Rules()); n != 0 {
		t.Fatalf("singleton store published %d rules", n)
	}
	wantCanon := oracle.Canonical(oracle.Frequent(rows, testMinSup))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				item := (g + i) % 7
				got, err := srv.ItemsetSupport(item)
				if err != nil {
					t.Errorf("ItemsetSupport(%d): %v", item, err)
					return
				}
				if want := item < 5; got.Frequent != want || (want && got.Count != 40) {
					t.Errorf("ItemsetSupport(%d) = %+v, want frequent %v with count 40", item, got, want)
					return
				}
				if pair, err := srv.ItemsetSupport(item, item+1); err != nil || pair.Frequent {
					t.Errorf("ItemsetSupport(%d, %d) = %+v, %v; want an infrequent pair", item, item+1, pair, err)
					return
				}
				if string(srv.View().Canonical()) != string(wantCanon) {
					t.Error("Canonical differs from the reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkFlush is the write-side budget of a publish: 256 sliding ops
// (128 appends of unseen baskets, 128 deletes of the oldest row) and the
// Flush that maintains and publishes them, over a 20k-row Quest T10.I4
// store at 0.2 % support — the 1,000-item universe and rule floor of the
// serve_write fixture at a quarter of its rows, so one iteration fits the
// CI benchmark smoke.
func BenchmarkFlush(b *testing.B) {
	const rows, pending = 20000, 256
	db, err := synth.Baskets(synth.T10I4(rows+4000, 1996))
	if err != nil {
		b.Fatal(err)
	}
	txs := make([][]int, len(db.Transactions))
	for i, tx := range db.Transactions {
		txs[i] = tx
	}
	srv, err := New(mustDB(b, txs[:rows]), Config{
		MinSupport:    0.002,
		RuleFloor:     0.3,
		MaintainAfter: manualTrigger,
		Options:       []mining.Option{mining.Workers(2)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx, extra, next := context.Background(), txs[rows:], 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pending; j++ {
			op := Op{Kind: OpDelete, TID: 0}
			if j%2 == 0 {
				op = Op{Kind: OpAppend, Items: extra[next%len(extra)]}
				next++
			}
			if err := srv.Enqueue(ctx, op); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := srv.Flush(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
