package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/wal"
	"repro/mining"
)

// oracleOps is the op vocabulary, each op listed as often as it is drawn.
var oracleOps = strings.Fields(`append append append append append append append append append append
	append-long append-long append-negative delete delete delete delete delete delete-out-of-range post post post-bad-line
	flush flush flush flush flush-cancelled query query query drain restart crash disk-fault compaction-fault`)

// oracleScript is one seeded script: its sync policy, whether sessions count
// on two in-process workers under worker faults, whether Mine is checked,
// and whether a script under the manual trigger runs one append-bulk.
type oracleScript struct {
	seed                int64
	policy              wal.SyncPolicy
	remote, mines, bulk bool
}

// oracleRun is one script in flight; cov counts its ops and events.
type oracleRun struct {
	t          *testing.T
	sc         oracleScript
	rng        *rand.Rand
	cfg        Config
	mem        *wal.MemFS
	srv        *Server
	stopReader func() []*View
	initial    [][]int
	sent       []Op               // every op the server may have sequenced, in order
	acked      int                // the prefix of sent known durable
	lastFlush  uint64             // version of the last view Flush returned
	memo       map[uint64]refView // the reference by op count, cleared at each open
	trail      []string
	cov        map[string]int
	degraded   atomic.Bool // a pass of the open session ran on local scans
}

// runOracle runs one script against a real Server on a MemFS and checks
// every view Flush returns or a concurrent reader sees.
func runOracle(t *testing.T, sc oracleScript) map[string]int {
	r := &oracleRun{t: t, sc: sc, rng: rand.New(rand.NewSource(sc.seed)), mem: wal.NewMemFS(),
		memo: map[uint64]refView{}, cov: map[string]int{}}
	for n := (70 + r.rng.Intn(70)) * min(1, r.rng.Intn(4)); n > 0; n-- { // a quarter of the scripts start empty
		r.initial = append(r.initial, r.basket())
	}
	r.cfg = Config{MinSupport: testMinSup, RuleFloor: testFloor, Fsync: sc.policy, FsyncEvery: time.Millisecond,
		MaintainAfter: []int{manualTrigger, 3, 8}[r.rng.Intn(3)], SnapshotEvery: []int{-1, 4, 16}[r.rng.Intn(3)],
		Options: []mining.Option{mining.ShardCap(64)}}
	if sc.remote {
		seed := r.rng.Int63()
		r.cfg.Options = append(r.cfg.Options, mining.Transport(mining.LocalTransport(2)),
			mining.Retry(mining.RetrySpec{MaxAttempts: 2, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Seed: seed}),
			mining.Faults(mining.FaultSpec{Seed: seed, Kill: 0.1, PartitionAfter: 4 * r.rng.Intn(3)}),
			mining.Progress(func(p mining.PassStat) { r.degraded.CompareAndSwap(false, p.Degraded) })) // latches true
	}
	t.Cleanup(func() {
		// open sets stopReader only after its checks pass, so a failed
		// check leaves a server with no reader of its own: stopReader is
		// nil, or the retired server's (a sync.OnceValue, safe to call
		// again).
		if r.stopReader != nil {
			r.stopReader()
		}
		if r.srv != nil {
			r.srv.Close()
		}
	})
	// One append-bulk at a random step, under the manual trigger only: with
	// MaintainAfter 3 or 8 its rows would publish over 500 views, each one
	// checked against the oracle.
	bulkAt := -1
	if sc.bulk && r.cfg.MaintainAfter == manualTrigger {
		bulkAt = r.rng.Intn(40)
	}
	r.open(mustDB(t, r.initial), r.mem)
	for i := range 40 {
		if i == bulkAt {
			r.step("append-bulk")
		}
		r.step(oracleOps[r.rng.Intn(len(oracleOps))])
	}
	if r.step("flush"); sc.mines {
		r.mineAll()
	}
	if r.retire(); r.degraded.Load() {
		r.cov["degraded pass"]++
	}
	return r.cov
}

// step runs one op of the vocabulary.
func (r *oracleRun) step(name string) {
	r.cov[name]++
	r.note("-- %s", name)
	ctx, live := context.Background(), len(refFold(r.initial, r.sent))
	switch name {
	case "append", "append-negative":
		items := r.basket()
		if name == "append-negative" {
			items[r.rng.Intn(len(items))] = -1 - r.rng.Intn(3)
		}
		r.enqueue(Op{Kind: OpAppend, Items: items})
	case "append-long":
		// Every subset of a row is frequent in a store of a few rows, so
		// rows past six items join stores of 60 or more (a min count of 3).
		n := 6
		if live >= 60 {
			n += r.rng.Intn(7)
		}
		r.enqueue(Op{Kind: OpAppend, Items: r.rng.Perm(16)[:n]})
	case "delete", "delete-out-of-range":
		tid := r.rng.Intn(max(1, live))
		if name == "delete-out-of-range" {
			tid = live + r.rng.Intn(3)
		}
		r.enqueue(Op{Kind: OpDelete, TID: tid})
	case "post", "post-bad-line":
		ops, body, want := []Op(nil), "", http.StatusOK
		for n := 1 + r.rng.Intn(3); n > 0; n-- {
			ops = append(ops, Op{Kind: OpAppend, Items: r.basket()})
			body += strings.Trim(fmt.Sprint(ops[len(ops)-1].Items), "[]") + "\n"
		}
		if name == "post-bad-line" { // the whole body must be refused
			body, want, ops = body+"4 x\n", http.StatusBadRequest, nil
		}
		r.note("post %q", body)
		rec := httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", strings.NewReader(body)))
		if rec.Code != want {
			r.fatalf("POST /v1/append answered %d, want %d: %s", rec.Code, want, rec.Body)
		}
		r.record(ops...)
	case "append-bulk":
		// More rows than one transactions.CountTids block holds (4,096),
		// each naming three of five items, so the Flush's delta Maintain
		// (or its full run, if the border is crossed) and every later full
		// run and workers-1 Mine count across a block boundary.
		n := 4100 + r.rng.Intn(201)
		r.note("append %d rows of three items from 0..4", n)
		for range n {
			op := Op{Kind: OpAppend, Items: r.rng.Perm(5)[:3]}
			if err := r.srv.Enqueue(ctx, op); err != nil {
				r.fatalf("Enqueue %+v: %v", op, err)
			}
			r.record(op)
		}
		if _, err := r.flush(ctx); err != nil {
			r.fatalf("Flush: %v", err)
		}
	case "flush", "flush-cancelled":
		if name == "flush-cancelled" {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel() // the model does not assume whether this Flush publishes
		}
		if _, err := r.flush(ctx); err != nil && !errors.Is(err, ctx.Err()) {
			r.fatalf("Flush: %v", err)
		}
	case "query":
		r.query()
	case "drain":
		for ; live > 0; live-- { // newest first, so no long row outlives the store's size
			r.enqueue(Op{Kind: OpDelete, TID: live - 1})
		}
		if v, err := r.flush(ctx); err != nil || v.res != nil {
			r.fatalf("Flush after a drain did not publish an empty view (err %v)", err)
		}
	case "restart":
		r.retire()
		r.acked = len(r.sent) // a clean Close syncs every op it applied
		r.open(nil, r.mem)
	case "crash":
		r.crash("lossy crash", nil)
	case "disk-fault":
		r.diskFault()
	case "compaction-fault":
		r.compactionFault()
	}
}

// basket draws a correlated row: an item pair (2i, 2i+1) plus noise.
func (r *oracleRun) basket() []int {
	pair := 2 * r.rng.Intn(6)
	row := []int{pair, pair + 1}
	for len(row) < 5 && r.rng.Intn(2) == 0 {
		row = append(row, r.rng.Intn(16))
	}
	return row
}

func (r *oracleRun) note(format string, args ...any) {
	r.trail = append(r.trail, fmt.Sprintf(format, args...))
}

func (r *oracleRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d (policy %s, remote %v): %s\nops:\n%s", r.sc.seed, r.sc.policy, r.sc.remote,
		fmt.Sprintf(format, args...), strings.Join(r.trail, "\n"))
}

// enqueue sends one op, which must be acknowledged, and records it.
func (r *oracleRun) enqueue(op Op) {
	r.note("enqueue %+v", op)
	if err := r.srv.Enqueue(context.Background(), op); err != nil {
		r.fatalf("Enqueue: %v", err)
	}
	r.record(op)
}

// record appends acknowledged ops to sent; SyncAlways makes them durable.
func (r *oracleRun) record(ops ...Op) {
	if r.sent = append(r.sent, ops...); r.cfg.Fsync == wal.SyncAlways {
		r.acked = len(r.sent)
	}
}

// flush runs Flush and checks the view it returns: versions monotone, and
// the reference both at its op count and after every op sent.
func (r *oracleRun) flush(ctx context.Context) (*View, error) {
	v, err := r.srv.Flush(ctx)
	if err != nil {
		return nil, err
	}
	if r.acked = len(r.sent); v.Version() < r.lastFlush {
		r.fatalf("Flush returned version %d after %d", v.Version(), r.lastFlush)
	}
	r.lastFlush = v.Version()
	r.check(v, v.Ops(), "Flush")
	if r.check(v, uint64(len(r.sent)), "Flush, after every op sent"); r.sc.mines && r.rng.Intn(6) == 0 {
		r.mineAll()
	}
	return v, nil
}

// refView is the oracle's answer at one op count: the frequent itemsets
// and their rules at the serving floor.
type refView struct {
	oracle.Result
	rules []mining.Rule
}

// ref is the reference's answer after the first ops sent ops.
func (r *oracleRun) ref(ops uint64) refView {
	if ops > uint64(len(r.sent)) {
		r.fatalf("a view at op %d, past the %d ops sent", ops, len(r.sent))
	}
	if _, ok := r.memo[ops]; !ok {
		ref := refView{Result: oracle.Frequent(refFold(r.initial, r.sent[:ops]), testMinSup)}
		for _, rule := range oracle.Rules(ref.Result, testFloor) {
			ref.rules = append(ref.rules, mining.Rule{Antecedent: rule.Antecedent, Consequent: rule.Consequent,
				Support: rule.Support, Confidence: rule.Confidence, Lift: rule.Lift})
		}
		r.memo[ops] = ref
	}
	return r.memo[ops]
}

// check compares v with the reference after ops sent ops; it counts v's maintain.
func (r *oracleRun) check(v *View, ops uint64, where string) {
	if want := r.ref(ops); !bytes.Equal(v.Canonical(), oracle.Canonical(want.Result)) || !sameRules(v.Rules(), want.rules) || v.NumTx() != want.NumTx {
		r.fatalf("%s: view %d (op %d, %d tx) is not the reference at op %d", where, v.Version(), v.Ops(), v.NumTx(), ops)
	}
	if st := v.stats; st.FullRun {
		r.cov["full-run view"]++
	} else if st.DirtyShards > 0 && st.DirtyShards < st.NumShards {
		r.cov["incremental view"]++
	}
}

// query asks TopRules, Recommend and ItemsetSupport right after a Flush,
// when nothing can publish, and checks each answer against the reference.
func (r *oracleRun) query() {
	r.step("flush")
	v := r.srv.View()
	items, k, want := []int{r.rng.Intn(16), r.rng.Intn(16)}[:1+r.rng.Intn(2)], 1+r.rng.Intn(8), r.ref(v.Ops())
	top, rec := scanTopRules(want.rules, RulesQuery{K: k, Antecedent: items}), scanRecommend(want.rules, items, k)
	gotTop, topV, err1 := r.srv.TopRules(RulesQuery{K: k, Antecedent: items})
	gotRec, recV, err2 := r.srv.Recommend(items, k)
	sup, err3 := r.srv.ItemsetSupport(items...)
	count, frequent := oracle.Count(want.Result, slices.Compact(slices.Sorted(slices.Values(items))))
	if err := errors.Join(err1, err2, err3); err != nil || topV != v.Version() || recV != v.Version() ||
		sup.Version != v.Version() || !sameRules(gotTop, top) || !sameRules(gotRec, rec) ||
		sup.Count != count || sup.Frequent != frequent || sup.NumTx != want.NumTx {
		r.fatalf("view %d, items %v, k %d: TopRules %v, Recommend %v, ItemsetSupport %+v (err %v); the reference says %v, %v, count %d",
			v.Version(), items, k, gotTop, gotRec, sup, err, top, rec, count)
	}
}

// open starts a server over fs (seeded with db if fs is fresh), checks
// acked ≤ recovered ≤ sent and its view, and starts a reader goroutine.
// It reports false when New failed on an injected fault.
func (r *oracleRun) open(db *mining.DB, fs wal.FS) bool {
	if r.degraded.Swap(false) {
		r.cov["degraded pass"]++
	}
	cfg := r.cfg
	cfg.FS = fs
	srv, err := New(db, cfg)
	if errors.Is(err, wal.ErrInjectedFault) {
		return false
	} else if err != nil {
		r.fatalf("New: %v", err)
	}
	ops, _ := srv.Recovered()
	r.note("recovered %d ops, %d acked, %d sent", ops, r.acked, len(r.sent))
	if r.srv, r.lastFlush = srv, 0; ops < uint64(r.acked) || ops > uint64(len(r.sent)) {
		r.fatalf("recovered %d ops; %d were acked and %d sent", ops, r.acked, len(r.sent))
	}
	r.sent, r.acked = r.sent[:ops], int(ops)
	clear(r.memo)
	if v := srv.View(); v.Ops() != ops {
		r.fatalf("the recovered view is at op %d, want %d", v.Ops(), ops)
	}
	r.check(srv.View(), ops, "recovered view")
	var stop atomic.Bool
	out := make(chan []*View)
	go func() {
		seen := []*View{srv.View()}
		for ; !stop.Load(); time.Sleep(20 * time.Microsecond) {
			if v := srv.View(); v != seen[len(seen)-1] {
				seen = append(seen, v)
			}
		}
		out <- seen
	}()
	r.stopReader = sync.OnceValue(func() []*View { stop.Store(true); return <-out })
	return true
}

// retire stops the reader, checks its views (rising versions, each the reference), closes the server.
func (r *oracleRun) retire() {
	seen := r.stopReader()
	for i, v := range seen {
		if i > 0 && v.Version() <= seen[i-1].Version() {
			r.fatalf("the reader saw version %d after %d", v.Version(), seen[i-1].Version())
		}
		r.check(v, v.Ops(), "reader")
	}
	if err := r.srv.Close(); err != nil {
		r.fatalf("Close: %v", err)
	}
	r.srv = nil
}

// crash cuts the power under the running server and reopens over what
// survived, through wrap when it is set; a crash that loses sent ops
// counts as event.
func (r *oracleRun) crash(event string, wrap func(wal.FS) wal.FS) {
	crashed, sent := r.mem.Crash(r.rng), len(r.sent)
	if r.degraded.Load() {
		r.cov["crash after degraded pass"]++
	}
	if r.srv != nil {
		r.retire()
	}
	var fs wal.FS = crashed
	if wrap != nil {
		fs = wrap(crashed)
	}
	if r.mem = crashed; r.open(nil, fs) && len(r.sent) < sent {
		r.cov[event]++
	}
}

// diskFault restarts over a disk whose writes, torn writes or fsyncs (one
// wal.FaultPlan kind per op) fail at random, sends appends and Flushes
// until the log fail-stops (then Enqueue must fail with wal.ErrWALFailed
// while reads serve), and cuts the power: the failed bytes stay volatile.
func (r *oracleRun) diskFault() {
	r.retire()
	r.acked = len(r.sent)
	plan, kind := wal.FaultPlan{Seed: r.rng.Int63()}, r.rng.Intn(3)
	*[]*float64{&plan.SyncErr, &plan.WriteErr, &plan.ShortWrite}[kind] = 0.2
	r.cov[[]string{"SyncErr plan", "WriteErr plan", "ShortWrite plan"}[kind]]++
	r.note("plan %+v", plan)
	var failure error
	faulty := r.open(nil, wal.NewFaultFS(r.mem, plan))
	for i := 1; faulty && i <= 16 && failure == nil; i++ {
		op := Op{Kind: OpAppend, Items: r.basket()}
		r.note("enqueue %+v", op)
		if failure = r.srv.Enqueue(context.Background(), op); failure != nil {
			r.sent = append(r.sent, op) // the failed batch may still be in the log
		} else if r.record(op); i%4 == 0 {
			_, failure = r.flush(context.Background())
		}
	}
	if failure != nil {
		r.cov["fail-stop"]++
		err := error(wal.ErrWALFailed)
		for i := 0; i < 3 && errors.Is(err, wal.ErrWALFailed); i++ { // every later Enqueue fails
			err = r.srv.Enqueue(context.Background(), Op{Kind: OpAppend, Items: r.basket()})
		}
		if _, _, rerr := r.srv.TopRules(RulesQuery{K: 5}); !errors.Is(failure, wal.ErrWALFailed) ||
			!errors.Is(err, wal.ErrWALFailed) || rerr != nil || r.srv.Stats().WALErrors == 0 {
			r.fatalf("after a disk fault (%v): Enqueue %v, reads %v, %d WAL errors", failure, err, rerr, r.srv.Stats().WALErrors)
		}
	}
	r.crash("lossy crash after fault", nil)
}

// compactionFault cuts the power and reopens over a disk failing every
// snapshot, so New's compaction of the replayed tail fails at its
// segment's start and a periodic one fails every second op. It acks more
// ops and cuts the power again: every op acked after a failed compaction
// must be recovered.
func (r *oracleRun) compactionFault() {
	faulty := &snapFailFS{sync: r.rng.Intn(2) == 0}
	every := r.cfg.SnapshotEvery
	r.cfg.SnapshotEvery = 2
	r.crash("lossy crash", func(fs wal.FS) wal.FS { faulty.FS = fs; return faulty })
	r.cfg.SnapshotEvery = every
	startup := faulty.fails.Load() // New compacts before it returns
	for n := 2 + r.rng.Intn(6); n > 0; n-- {
		r.enqueue(Op{Kind: OpAppend, Items: r.basket()})
	}
	if _, err := r.flush(context.Background()); err != nil {
		r.fatalf("Flush: %v", err)
	}
	if startup > 0 {
		r.cov["failed startup compaction"]++
	}
	if faulty.fails.Load() > startup {
		r.cov["failed periodic compaction"]++
	}
	r.enqueue(Op{Kind: OpAppend, Items: r.basket()})
	r.crash("lossy crash", nil)
}

// snapFailFS fails the write (or, with sync set, the fsync) of every
// snapshot the log stages and leaves its segments clean.
type snapFailFS struct {
	wal.FS
	sync  bool
	fails atomic.Int64
}

func (f *snapFailFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".tmp") {
		return file, err
	}
	f.fails.Add(1)
	return snapFailFile{file, f.sync}, nil
}

// snapFailFile is one snapshot staged on a snapFailFS.
type snapFailFile struct {
	wal.File
	sync bool
}

func (f snapFailFile) Write(p []byte) (int, error) {
	if f.sync {
		return f.File.Write(p)
	}
	return 0, wal.ErrInjectedFault
}

func (f snapFailFile) Sync() error {
	if f.sync {
		return wal.ErrInjectedFault
	}
	return f.File.Sync()
}

// mineAll checks each engine's one-shot Mine, and the distributed
// backend's through Transport, at workers 1 and 4 after every op sent.
func (r *oracleRun) mineAll() {
	rows := refFold(r.initial, r.sent)
	if len(rows) == 0 {
		return
	}
	want, db := r.ref(uint64(len(r.sent))), mustDB(r.t, rows)
	mine := func(name string, workers int, backend mining.Option) {
		res, err := mining.Mine(context.Background(), db, backend, mining.MinSupport(testMinSup), mining.Workers(workers))
		if err != nil || !bytes.Equal(res.Canonical(), oracle.Canonical(want.Result)) {
			r.fatalf("Mine(%s, workers %d) over %d rows is not the reference (err %v)", name, workers, len(rows), err)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, name := range mining.Algorithms() {
			mine(name, workers, mining.Algorithm(name))
		}
		mine("Distributed", workers, mining.Transport(mining.LocalTransport(workers)))
	}
}

// oracleSeeds is TestOracle's seed list; a failing script's seed joins it.
var oracleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// TestOracle is the whole-stack oracle. A seed picks the sync policy (seed
// mod 3) and remote sessions (even seeds); the list must cover all events.
func TestOracle(t *testing.T) {
	total := map[string]int{}
	for _, seed := range oracleSeeds {
		sc := oracleScript{seed: seed, policy: wal.SyncPolicy(seed % 3), remote: seed%2 == 0, mines: true, bulk: true}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for event, n := range runOracle(t, sc) {
				total[event] += n
			}
		})
	}
	for _, want := range append(slices.Compact(slices.Clone(oracleOps)), "append-bulk", "lossy crash", "lossy crash after fault",
		"fail-stop", "SyncErr plan", "WriteErr plan", "ShortWrite plan",
		"failed startup compaction", "failed periodic compaction",
		"incremental view", "full-run view", "degraded pass", "crash after degraded pass") {
		if total[want] == 0 {
			t.Errorf("no script saw a %s", want)
		}
	}
}

// TestDurableCrashRecoveryProperty runs the oracle over every sync policy
// with local sessions: restarts recover acked ≤ recovered ≤ sent ops.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNever, wal.SyncInterval} {
			t.Run(fmt.Sprintf("policy=%s/seed=%d", policy, seed), func(t *testing.T) {
				t.Parallel()
				runOracle(t, oracleScript{seed: seed, policy: policy})
			})
		}
	}
}
