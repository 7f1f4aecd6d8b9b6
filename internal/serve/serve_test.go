package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// mineFromScratch mines rows with the facade and returns the canonical
// bytes and the floor rule set — the independent oracle every view is
// checked against.
func mineFromScratch(t *testing.T, rows [][]int, minSup, floor float64) ([]byte, []mining.Rule) {
	t.Helper()
	if len(rows) == 0 {
		return nil, nil
	}
	res, err := mining.Mine(context.Background(), mustDB(t, rows), mining.MinSupport(minSup))
	if err != nil {
		t.Fatalf("from-scratch mine: %v", err)
	}
	rules, err := res.Rules(floor)
	if err != nil {
		t.Fatalf("from-scratch rules: %v", err)
	}
	return res.Canonical(), rules
}

// opModel replays the queue-op semantics on plain rows: appends add a
// row, deletes remove the live row at TID, out-of-range deletes are
// dropped — exactly what Server.apply does to the store.
type opModel struct {
	rows [][]int
}

// apply replays one op.
func (m *opModel) apply(op Op) {
	switch op.Kind {
	case OpAppend:
		m.rows = append(m.rows, op.Items)
	case OpDelete:
		if op.TID >= 0 && op.TID < len(m.rows) {
			m.rows = append(m.rows[:op.TID:op.TID], m.rows[op.TID+1:]...)
		}
	}
}

// snapshotRows returns a copy of the current rows.
func (m *opModel) snapshotRows() [][]int {
	out := make([][]int, len(m.rows))
	copy(out, m.rows)
	return out
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
	wantCanon, wantRules := mineFromScratch(t, rows, testMinSup, testFloor)
	if string(v.Canonical()) != string(wantCanon) {
		t.Fatal("initial view diverges from a from-scratch mine")
	}
	if !reflect.DeepEqual(v.Rules(), wantRules) {
		t.Fatal("initial rules diverge from a from-scratch mine")
	}
}

func TestEmptyStartAndIngest(t *testing.T) {
	srv := newTestServer(t, nil, Config{})
	v := srv.View()
	if v.Version() != 0 || !v.Empty() {
		t.Fatalf("empty server start: version %d empty %v, want 0/true", v.Version(), v.Empty())
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
	if v2.Version() == 0 || v2.Empty() {
		t.Fatalf("post-ingest view version %d empty %v", v2.Version(), v2.Empty())
	}
	if v2.Ops() != uint64(len(rows)) {
		t.Fatalf("view ops = %d, want %d", v2.Ops(), len(rows))
	}
	wantCanon, _ := mineFromScratch(t, rows, testMinSup, testFloor)
	if string(v2.Canonical()) != string(wantCanon) {
		t.Fatal("ingested view diverges from a from-scratch mine")
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
	if !v.Empty() || v.NumTx() != 0 {
		t.Fatalf("drained store: view empty=%v numTx=%d, want empty", v.Empty(), v.NumTx())
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
// copy-on-write publish: reader goroutines spin on the view and the
// query paths while the writer runs Enqueue/Flush cycles. Every observed
// (version, canonical, rules) triple must be byte-identical to a
// from-scratch mine over the op-log replayed to that view's Ops()
// position, versions must be monotone per reader, every HTTP
// response must carry the (version, num_tx) of one published view — not
// the version of one and the size of the next — and nothing may leak.
// CI runs it under -race.
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
		rules []mining.Rule
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
			observed[v.Version()] = observation{ops: v.Ops(), canon: string(v.Canonical()), rules: v.Rules()}
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
	var opLog []Op
	driver := opModel{rows: append([][]int(nil), initial...)}
	ctx := context.Background()
	published := map[uint64]int{1: len(initial)}
	for round := 0; round < rounds; round++ {
		batch := 1 + rng.Intn(6)
		for i := 0; i < batch; i++ {
			var op Op
			if len(driver.rows) > 40 && rng.Float64() < 0.25 {
				op = Op{Kind: OpDelete, TID: rng.Intn(len(driver.rows))}
			} else {
				row := []int{rng.Intn(18), rng.Intn(18), rng.Intn(18), rng.Intn(18)}
				op = Op{Kind: OpAppend, Items: row}
			}
			if err := srv.Enqueue(ctx, op); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
			opLog = append(opLog, op)
			driver.apply(op)
		}
		v, err := srv.Flush(ctx)
		if err != nil {
			t.Fatalf("Flush round %d: %v", round, err)
		}
		if v.Ops() != uint64(len(opLog)) {
			t.Fatalf("round %d: view ops %d, want %d", round, v.Ops(), len(opLog))
		}
		if v.NumTx() != len(driver.rows) {
			t.Fatalf("round %d: view num_tx %d, want %d", round, v.NumTx(), len(driver.rows))
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

	// Verify every observed version against an independent from-scratch
	// mine at its op position.
	replay := opModel{rows: append([][]int(nil), initial...)}
	replayed := uint64(0)
	versions := make([]uint64, 0, len(observed))
	for v := range observed {
		versions = append(versions, v)
	}
	slices.Sort(versions)
	for _, version := range versions {
		obs := observed[version]
		if obs.ops < replayed {
			t.Fatalf("version %d has ops %d < already-replayed %d (non-monotone publish)", version, obs.ops, replayed)
		}
		for replayed < obs.ops {
			replay.apply(opLog[replayed])
			replayed++
		}
		wantCanon, wantRules := mineFromScratch(t, replay.snapshotRows(), testMinSup, testFloor)
		if obs.canon != string(wantCanon) {
			t.Errorf("version %d (ops %d): canonical bytes diverge from a from-scratch mine", version, obs.ops)
		}
		if !reflect.DeepEqual(obs.rules, wantRules) {
			t.Errorf("version %d (ops %d): rules diverge from a from-scratch mine", version, obs.ops)
		}
	}
	if len(versions) == 0 {
		t.Fatal("readers observed no versions at all")
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
