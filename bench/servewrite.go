package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/transactions"
	"repro/internal/wal"
	"repro/mining"
)

// The write workload's server settings: a maintain every eight cycles
// (8 × 32 ops) and a snapshot every 128.
const (
	maintainAfter = 256
	snapshotEvery = 4096
	cycleOps      = 2 * cycleLines // WAL ops per cycle: 16 appends, 16 deletes
)

// appendReply is what a successful 16-line append answers.
var appendReply = []byte(fmt.Sprintf("{\"enqueued\":%d}\n", cycleLines))

// deleteReply is what a successful delete answers.
var deleteReply = []byte("{\"enqueued\":1}\n")

// serveWrite is the serve_write workload: one op is one ingest cycle, a
// POST of 16 basket lines followed by 16 deletes of the oldest
// transaction — a sliding retention window that pins the store's size.
type serveWrite struct {
	e       *env
	fs      *countingFS
	cfg     serve.Config
	srv     *serve.Server
	handler http.Handler
	w       *respWriter
	post    *http.Request
	del     *http.Request

	fx      *fixture
	bodies  []string // fx.seq as ingest bodies, one per cycle, used round the order
	cycles  int      // cycles acknowledged so far, warm-up included
	base    serve.Stats
	baseFS  fsCounts
	baseCyc int
}

// writeConfig is the durable configuration over fs.
func writeConfig(sc scale, fs wal.FS) serve.Config {
	cfg := serveConfig(sc)
	cfg.MaintainAfter = maintainAfter
	cfg.SnapshotEvery = snapshotEvery
	cfg.Fsync = wal.SyncAlways
	cfg.FS = fs
	return cfg
}

// setupServeWrite loads the fixture, starts a durable server on a counted
// in-memory filesystem, renders the ingest bodies and warms the ingest
// path up.
func setupServeWrite(e *env) (instance, error) {
	fx, db, err := e.loadFixture()
	if err != nil {
		return nil, err
	}
	w := &serveWrite{e: e, fx: fx, w: newRespWriter()}
	w.bodies = ingestBodies(fx.seq)
	w.fs = newCountingFS()
	w.cfg = writeConfig(e.sc, w.fs)
	if err := e.timeStage("serve.new_ms", func() error {
		w.srv, err = serve.New(db, w.cfg)
		return err
	}); err != nil {
		return nil, err
	}
	w.handler = w.srv.Handler()
	if w.post, err = http.NewRequest(http.MethodPost, "/v1/append", nil); err != nil {
		w.close()
		return nil, err
	}
	if w.del, err = http.NewRequest(http.MethodPost, "/v1/delete?tid=0", nil); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < e.z.warmOps; i++ {
		if _, ok := w.cycle(nil); !ok {
			w.close()
			return nil, fmt.Errorf("warm-up cycle %d failed: status %d, body %q", i, w.w.code, w.w.body)
		}
	}
	// The ingest goroutine maintains and snapshots after it acknowledges, so
	// counters are only read behind a Flush, which passes through it.
	if _, err := w.srv.Flush(ctx); err != nil {
		w.close()
		return nil, err
	}
	w.base, w.baseFS, w.baseCyc = w.srv.Stats(), w.fs.counts(), w.cycles
	return w, nil
}

// send passes one request through the handler under a span that says
// what the client waited on: a plain enqueue-to-ack, or an ack that had to
// wait for the ingest goroutine to finish a maintain or a snapshot.
func (w *serveWrite) send(tr *tracer, name string, req *http.Request, want []byte) bool {
	var before serve.Stats
	if tr != nil {
		before = w.srv.Stats()
	}
	id := tr.begin(name)
	w.w.reset()
	w.handler.ServeHTTP(w.w, req)
	tr.end()
	if tr != nil {
		after := w.srv.Stats()
		switch {
		case after.Maintains != before.Maintains:
			tr.rename(id, "serve.maintain_wait")
		case after.Snapshots != before.Snapshots:
			tr.rename(id, "serve.snapshot_wait")
		}
	}
	return w.w.code == http.StatusOK && bytes.Equal(w.w.body, want)
}

// cycle runs one ingest cycle and returns its timed length.
func (w *serveWrite) cycle(tr *tracer) (time.Duration, bool) {
	w.post.Body = io.NopCloser(strings.NewReader(w.bodies[w.arriving(w.cycles)]))
	w.fs.tr.Store(tr)
	t := time.Now()
	tr.begin(rootSpan)
	ok := w.send(tr, "serve.append", w.post, appendReply)
	for i := 0; ok && i < cycleLines; i++ {
		ok = w.send(tr, "serve.delete", w.del, deleteReply)
	}
	tr.end()
	d := time.Since(t)
	w.fs.tr.Store(nil)
	if ok {
		w.cycles++
	}
	return d, ok
}

func (w *serveWrite) reference() error { return nil }

func (w *serveWrite) op(i int, tr *tracer) (time.Duration, bool) { return w.cycle(tr) }

// arriving is the body cycle c appends: the one after the store's window.
func (w *serveWrite) arriving(c int) int {
	return (len(w.fx.rows)/cycleLines + c) % len(w.bodies)
}

// model is the store the acknowledged cycles must have produced: every
// cycle appended the next 16 rows of the order at the tail and deleted the
// 16 oldest, so the window has slid 16 rows per cycle round the order.
func (w *serveWrite) model() [][]int {
	seq := w.fx.seq
	out := make([][]int, len(w.fx.rows))
	for i := range out {
		out[i] = seq[(w.cycles*cycleLines+i)%len(seq)]
	}
	return out
}

func (w *serveWrite) finish(values map[string]float64, traced bool) (checks, failed int, err error) {
	defer w.close()
	acked := uint64(w.cycles * cycleOps)
	view, err := w.srv.Flush(ctx)
	if err != nil {
		return 0, 0, err
	}
	st, fc := w.srv.Stats(), w.fs.counts()
	kops := float64((w.cycles-w.baseCyc)*cycleOps) / 1000
	values["serve.maintains"] = float64(st.Maintains - w.base.Maintains)
	values["serve.full_runs"] = float64(st.FullRuns - w.base.FullRuns)
	values["serve.snapshots"] = float64(st.Snapshots - w.base.Snapshots)
	values["wal.syncs_per_kop"] = float64(fc.syncs-w.baseFS.syncs) / kops
	values["wal.writes_per_kop"] = float64(fc.writes-w.baseFS.writes) / kops
	values["wal.log_bytes_per_op"] = float64(fc.logBytes-w.baseFS.logBytes) / kops / 1000
	values["wal.snap_bytes_per_op"] = float64(fc.snapBytes-w.baseFS.snapBytes) / kops / 1000

	// Every acknowledged op was applied: the flushed view equals a
	// from-scratch mine over the replayed op log.
	model, err := mining.NewDB(w.model())
	if err != nil {
		return 0, 0, err
	}
	ref, err := referenceMine(model, w.e.sc.serveSup)
	if err != nil {
		return 0, 0, err
	}
	want := ref.Canonical()
	checks++
	if view.Ops() != acked || !bytes.Equal(view.Canonical(), want) {
		failed++
	}
	// Every acknowledged op survives a power cut: a server started on the
	// crash image recovers all of them and mines the same bytes.
	checks++
	crashed, err := serve.New(nil, writeConfig(w.e.sc, w.fs.Mem.Crash(rand.New(rand.NewSource(w.e.seed)))))
	if err != nil {
		failed++
	} else {
		if ops, found := crashed.Recovered(); !found || ops != acked || !bytes.Equal(crashed.View().Canonical(), want) {
			failed++
		}
		crashed.Close()
	}
	if traced {
		err = w.probes(values, model)
	}
	return checks, failed, err
}

func (w *serveWrite) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// probes runs serve_write's layer probes. They come last because they
// stop the server: its shutdown, a restart over what it left on the
// filesystem, and raw recovery are timed first; then the ingest and
// maintain path on a second server that only maintains when flushed; then
// the wal, mining.Session and transactions layers on their own.
func (w *serveWrite) probes(values map[string]float64, model *mining.DB) error {
	t := time.Now()
	if err := w.srv.Close(); err != nil {
		return err
	}
	w.srv = nil
	values["serve.close_ms"] = float64(time.Since(t)) / 1e6

	var rec *wal.Recovery
	var err error
	if values["wal.recover_ms"], err = probeMS(3, func() error {
		rec, err = wal.Recover(w.fs.Mem)
		return err
	}); err != nil {
		return err
	}
	values["wal.recovered_ops"] = float64(rec.Ops)
	runtime.GC()
	t = time.Now()
	restarted, err := serve.New(nil, w.cfg)
	if err != nil {
		return err
	}
	values["serve.restart_ms"] = float64(time.Since(t)) / 1e6
	restarted.Close()

	// Ingest and maintain, separated: with MaintainAfter out of reach the
	// 256 enqueues are pure enqueue-WAL-ack, and the Flush after them is
	// one maintain and publish.
	cfg := writeConfig(w.e.sc, wal.NewMemFS())
	cfg.MaintainAfter = 1 << 30
	srv, err := serve.New(model, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	var enqueueUS, flushMS []float64
	next := 0
	for round := 0; round < 5; round++ {
		runtime.GC()
		for i := 0; i < maintainAfter; i++ {
			op := serve.Op{Kind: serve.OpDelete, TID: 0}
			if i%2 == 0 {
				op = serve.Op{Kind: serve.OpAppend, Items: w.fx.pool[next%len(w.fx.pool)]}
				next++
			}
			t := time.Now()
			if err := srv.Enqueue(ctx, op); err != nil {
				return err
			}
			enqueueUS = append(enqueueUS, float64(time.Since(t))/1e3)
		}
		t := time.Now()
		if _, err := srv.Flush(ctx); err != nil {
			return err
		}
		flushMS = append(flushMS, float64(time.Since(t))/1e6)
	}
	values["serve.enqueue_us"] = median(enqueueUS)
	values["serve.flush_ms"] = median(flushMS)

	tdb, err := plainDB(model.Rows())
	if err != nil {
		return err
	}
	if err := walProbes(values, tdb, w.fx.pool); err != nil {
		return err
	}
	if err := sessionProbes(values, model, w.e.sc.serveSup, w.fx.pool); err != nil {
		return err
	}
	if err := stableCodec(values, tdb); err != nil {
		return err
	}
	return shardedOps(values, tdb, w.fx.pool)
}

// walProbes times the log on its own: a synced append, and a snapshot of
// the whole store.
func walProbes(values map[string]float64, tdb *transactions.DB, extra [][]int) error {
	log, _, err := wal.Open(wal.NewMemFS(), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	const n = 4096
	var seq uint64
	runtime.GC()
	t := time.Now()
	for i := 0; i < n; i++ {
		if seq, err = log.Append(wal.Op{Kind: int(serve.OpAppend), Items: extra[i%len(extra)]}); err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
	}
	values["wal.append_us"] = float64(time.Since(t)) / 1e3 / n
	values["wal.snapshot_ms"], err = probeMS(3, func() error {
		return log.Snapshot(tdb.Transactions, seq)
	})
	return err
}

// sessionProbes times the maintainer below the serving tier: a full
// attach, then one 256-op sliding batch and the incremental Maintain that
// absorbs it.
func sessionProbes(values map[string]float64, db *mining.DB, support float64, extra [][]int) error {
	sess, err := mining.NewSession(db, mining.MinSupport(support), mining.Workers(workers))
	if err != nil {
		return err
	}
	defer sess.Close()
	runtime.GC()
	t := time.Now()
	if _, err := sess.Mine(ctx); err != nil {
		return err
	}
	values["mining.session_full_ms"] = float64(time.Since(t)) / 1e6
	var ms []float64
	var last mining.MaintainStats
	for round := 0; round < 3; round++ {
		for i := 0; i < maintainAfter/2; i++ {
			if err := sess.Append(extra[(round*maintainAfter/2+i)%len(extra)]...); err != nil {
				return err
			}
			if _, err := sess.DeleteAt(0); err != nil {
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		if _, last, err = sess.Maintain(ctx); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	values["mining.session_maintain_ms"] = median(ms)
	values["mining.maintain_dirty_shards"] = float64(last.DirtyShards)
	values["mining.maintain_recounted_tx"] = float64(last.RecountedTx)
	return nil
}
