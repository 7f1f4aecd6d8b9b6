// Package serve is the long-running query tier over mining.Session: the
// piece that turns the incremental/distributed mining library into a
// service handling thousands of concurrent readers while an update
// stream runs.
//
// # Snapshot-consistency contract
//
// The server separates one writer from many readers. A single ingest
// goroutine drains a bounded queue of Ops (appends and deletes) into the
// session and triggers Maintain on a dirty-op threshold or a timer. It
// hands each completed Maintain to one publisher goroutine over a
// one-entry channel and goes back to acknowledging ops. The publisher, in
// hand-off order, derives the rule set at the configured confidence floor
// and the query index and publishes an immutable View — version,
// maintained Result, rules, index — behind one atomic pointer swap
// (copy-on-write). Readers load the pointer and never take a lock, so
// queries never block the maintainer and the maintainer never blocks
// queries. Flush answers from the publisher, once the view covering the
// ops it drained is published; Close publishes every handed-off Maintain
// before it returns. The result's canonical bytes are not encoded at
// publish: the first reader that asks for them encodes them once under a
// sync.Once, so a write path with no /v1/canonical reader never pays for
// them. The contract, checked by the whole-stack oracle (TestOracle):
//
//   - every published View is internally consistent: its Result and rules
//     are byte-identical to a from-scratch mine over the store's contents
//     after exactly View.Ops() queue operations were applied;
//   - versions are strictly monotone: a reader that observed version v
//     never later observes a version < v;
//   - a View, once obtained, never changes — readers may hold it across
//     any number of concurrent Maintains.
//
// # Queries
//
// Every read — over HTTP or the Go API — loads the view pointer
// once and is answered from that one snapshot, so a response never mixes
// the version of one view with the size of the next.
//
// A view carries a query index, built once when it is published (newView,
// on the publisher goroutine; four flat allocations and time linear in
// the rule set, each ranking a byte-wise radix sort of one 32-bit key per
// rule): the rule ids ranked by support and
// by lift — the published order already is the confidence ranking — and
// two posting lists keyed by item, the rules whose antecedent contains
// the item and the rules whose antecedent starts with it. A query then
// costs the postings it walks plus the K rules it returns, not the rule
// set: top-k with no antecedent reads the head of one ranking; with an
// antecedent it walks the shortest posting list of the asked items, stops
// at the confidence cutoff, and ranks only what matched; a recommendation
// walks the first-item postings of the basket's items, which name every
// rule whose antecedent can lie inside the basket exactly once, and ranks
// the matches. The answers are identical to filtering and stably sorting the
// whole rule set (TestIndexMatchesScan keeps that scan as its reference).
//
// Results are also kept in a small LRU keyed on (view version, normalized
// query), so a version bump can never serve a stale entry: the new
// version misses by construction. With the index a miss costs 1.01 µs
// against a hit's 0.44 µs (bench serve_read, 2-core host), so the cache
// no longer decides read latency.
//
// # Durability
//
// With Config.DataDir (or a test FS) set, the server writes every op to
// an internal/wal write-ahead log *before* applying or acknowledging it:
// the ingest goroutine drains a batch from the queue, appends all of it
// to the log, fsyncs once (under wal.SyncAlways — the group commit that
// amortizes fsync latency across concurrent writers), and only then
// applies the ops and unblocks their Enqueue calls. Crash recovery in
// New loads the newest valid snapshot, replays the log tail through the
// same apply path the live stream uses, and — because a store-rejected
// op advances the op sequence in both paths — reconstructs exactly the
// fold of the persisted op prefix. Flush implies fsync; Close drains the
// queue, syncs, and writes a final snapshot. The first write or sync
// error makes the log fail-stop: every later Enqueue returns the error
// and nothing more is acknowledged (retrying a failed fsync silently
// drops data on most kernels), while reads keep serving the last
// published view.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/mining"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultRuleFloor is the confidence floor of the published rule set.
	DefaultRuleFloor = 0.5
	// DefaultQueueSize bounds the ingest queue; Enqueue blocks when full.
	DefaultQueueSize = 1024
	// DefaultMaintainAfter is the dirty-op count that triggers a Maintain.
	DefaultMaintainAfter = 256
	// DefaultCacheSize is the query-result LRU's entry capacity.
	DefaultCacheSize = 512
	// DefaultSnapshotEvery is the op count between WAL snapshots.
	DefaultSnapshotEvery = 4096
	// DefaultFsyncEvery is the sync period under wal.SyncInterval.
	DefaultFsyncEvery = 100 * time.Millisecond
)

// Errors returned by the server.
var (
	// ErrServerClosed reports use of a server after Close.
	ErrServerClosed = errors.New("serve: server is closed")
	// ErrBadQuery reports an invalid query (unknown rank key, negative
	// top-k, malformed item list); HTTP handlers map it to 400.
	ErrBadQuery = errors.New("serve: invalid query")
	// ErrBadConfig reports an invalid Config field.
	ErrBadConfig = errors.New("serve: invalid config")
)

// OpKind selects an ingest mutation.
type OpKind int

// The two ingest mutations, mirroring Session.Append and Session.DeleteAt.
const (
	// OpAppend appends Op.Items as one transaction.
	OpAppend OpKind = iota
	// OpDelete deletes the live transaction with id Op.TID.
	OpDelete
)

// Op is one queued store mutation. Ops are applied in queue order by the
// single ingest goroutine; an op that the store rejects (negative item
// ids, an out-of-range TID) is counted in Stats.IngestErrors and dropped
// — it still advances the op sequence, so replay-based verification must
// mirror the same skip. The WAL persists rejected ops too, verbatim, for
// the same reason: replay must skip exactly where the live stream did.
type Op struct {
	// Kind selects the mutation.
	Kind OpKind
	// Items is the transaction to append (OpAppend only).
	Items []int
	// TID is the live transaction id to delete (OpDelete only).
	TID int
}

// Config tunes a Server. The zero value of every field selects a
// documented default; Options forwards arbitrary mining options
// (Algorithm, Workers, Transport, ShardCap...) to the
// underlying session, which is how a serving tier fans counting out to
// distributed workers.
type Config struct {
	// MinSupport is the session's relative minimum support
	// (0 = mining.DefaultMinSupport).
	MinSupport float64
	// RuleFloor is the minimum confidence of the published rule set in
	// (0, 1] (0 = DefaultRuleFloor). Queries filter at or above it; a
	// query asking below the floor is answered from the floor set.
	RuleFloor float64
	// QueueSize bounds the ingest queue's entries: one per Enqueue call
	// and one per append request, whatever its line count
	// (0 = DefaultQueueSize).
	QueueSize int
	// MaintainAfter triggers a Maintain once that many ops were applied
	// since the last publish (0 = DefaultMaintainAfter).
	MaintainAfter int
	// MaintainEvery additionally triggers a Maintain on a timer when at
	// least one op is pending (0 = no timer).
	MaintainEvery time.Duration
	// CacheSize is the query-result LRU capacity in entries
	// (0 = DefaultCacheSize; negative disables caching).
	CacheSize int
	// DataDir enables durability: the directory holding the write-ahead
	// log and snapshots. Empty (and FS nil) keeps the server in-memory
	// only. New recovers whatever state the directory holds before
	// serving; an initial db is used only when the directory is fresh.
	DataDir string
	// Fsync is the WAL sync policy (zero value wal.SyncAlways: sync
	// before acknowledging — no acked op can be lost to a crash).
	Fsync wal.SyncPolicy
	// FsyncEvery is the sync period under wal.SyncInterval
	// (0 = DefaultFsyncEvery).
	FsyncEvery time.Duration
	// SnapshotEvery writes a WAL snapshot (and truncates the log) every
	// that many ops (0 = DefaultSnapshotEvery; negative disables
	// periodic snapshots — the log grows until Close).
	SnapshotEvery int
	// FS overrides the WAL filesystem — the fault-injection and crash
	// property tests' hook. When set, DataDir is ignored.
	FS wal.FS
	// Options are extra mining options for the session.
	Options []mining.Option
}

// withDefaults resolves zero fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.MinSupport == 0 {
		c.MinSupport = mining.DefaultMinSupport
	}
	if c.RuleFloor == 0 {
		c.RuleFloor = DefaultRuleFloor
	}
	if c.RuleFloor < 0 || c.RuleFloor > 1 {
		return c, fmt.Errorf("%w: RuleFloor %v outside (0, 1]", ErrBadConfig, c.RuleFloor)
	}
	if c.QueueSize == 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.QueueSize < 0 {
		return c, fmt.Errorf("%w: negative QueueSize %d", ErrBadConfig, c.QueueSize)
	}
	if c.MaintainAfter == 0 {
		c.MaintainAfter = DefaultMaintainAfter
	}
	if c.MaintainAfter < 0 {
		return c, fmt.Errorf("%w: negative MaintainAfter %d", ErrBadConfig, c.MaintainAfter)
	}
	if c.MaintainEvery < 0 {
		return c, fmt.Errorf("%w: negative MaintainEvery %v", ErrBadConfig, c.MaintainEvery)
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	switch c.Fsync {
	case wal.SyncAlways, wal.SyncInterval, wal.SyncNever:
	default:
		return c, fmt.Errorf("%w: unknown Fsync policy %d", ErrBadConfig, int(c.Fsync))
	}
	if c.FsyncEvery < 0 {
		return c, fmt.Errorf("%w: negative FsyncEvery %v", ErrBadConfig, c.FsyncEvery)
	}
	if c.FsyncEvery == 0 {
		c.FsyncEvery = DefaultFsyncEvery
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	return c, nil
}

// View is one immutable published snapshot: a version-stamped frequent
// set plus its rule set. Readers obtain one with Server.View (or
// implicitly through the query methods) and may hold it indefinitely —
// it never changes after publication. A View with NumTx() 0 reports
// an empty store (version 0 before the first publish, or the store was
// drained by deletes).
type View struct {
	version uint64
	ops     uint64
	numTx   int
	stats   mining.MaintainStats
	res     *mining.Result
	rules   []mining.Rule
	index   queryIndex

	canonOnce sync.Once
	canon     []byte // set by canonOnce on the first Canonical call
}

// newView is the one constructor of a View: whatever gets published has
// its query index built here, exactly once, with scratch as the rankings'
// working memory (nil: a fresh one). A nil res is an empty store (no result, no
// canonical bytes); rules must be in GenerateRules order. The canonical
// bytes are not encoded here but on the first Canonical call.
func newView(version, ops uint64, stats mining.MaintainStats, res *mining.Result, rules []mining.Rule, scratch *rankScratch) *View {
	v := &View{version: version, ops: ops, stats: stats, res: res, rules: rules, index: newQueryIndex(rules, scratch)}
	if res != nil {
		v.numTx = res.NumTx()
	}
	return v
}

// Version is the publish sequence number, strictly increasing from 1
// (0 is the pre-first-publish empty view).
func (v *View) Version() uint64 { return v.version }

// Ops is the number of queue operations consumed when this view was
// mined — the replay point for from-scratch verification.
func (v *View) Ops() uint64 { return v.ops }

// NumTx is the number of live transactions mined into this view.
func (v *View) NumTx() int { return v.numTx }

// Rules returns the published rule set at the server's confidence floor,
// in assoc.GenerateRules order (confidence desc, support desc, then
// antecedent and consequent order). The query index counts on the
// confidence part: a rule's position is its confidence rank. The slice is
// shared and read-only.
func (v *View) Rules() []mining.Rule { return v.rules }

// Canonical returns the deterministic byte encoding of the view's
// frequent levels — byte-identical to Result.Canonical of a from-scratch
// mine at this version. It is encoded lazily, once, by whichever reader
// asks first (a publish does not pay for it); concurrent callers wait for
// that one encoding. The slice is shared and read-only; nil for an empty
// view.
func (v *View) Canonical() []byte {
	if v.res == nil {
		return nil
	}
	v.canonOnce.Do(func() { v.canon = v.res.Canonical() })
	return v.canon
}

// Support returns the absolute support of items if the itemset is
// frequent in this view.
func (v *View) Support(items ...int) (int, bool) {
	if v.res == nil {
		return 0, false
	}
	return v.res.Support(items...)
}

// Stats is a point-in-time counter snapshot of a server.
type Stats struct {
	// Version is the current published view's version.
	Version uint64 `json:"version"`
	// NumTx is the current view's transaction count.
	NumTx int `json:"num_tx"`
	// Ops is the number of queue operations consumed so far.
	Ops uint64 `json:"ops"`
	// QueueLen is the current ingest-queue depth, in entries.
	QueueLen int `json:"queue_len"`
	// Maintains counts published views; FullRuns counts the ones whose
	// Maintain fell back to a full re-mine.
	Maintains uint64 `json:"maintains"`
	// FullRuns counts maintains that fell back to a full re-mine.
	FullRuns uint64 `json:"full_runs"`
	// IngestErrors counts ops the store rejected.
	IngestErrors uint64 `json:"ingest_errors"`
	// CacheHits and CacheMisses are the query-result LRU counters.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts cache lookups that had to compute the result.
	CacheMisses uint64 `json:"cache_misses"`
	// Durable reports whether a write-ahead log is attached.
	Durable bool `json:"durable"`
	// RecoveredOps is the op count reconstructed from the WAL at startup.
	RecoveredOps uint64 `json:"recovered_ops"`
	// Snapshots counts WAL snapshots written since startup.
	Snapshots uint64 `json:"snapshots"`
	// WALErrors counts persistence failures; nonzero means the log is
	// fail-stop and ingestion has been refused since the first one.
	WALErrors uint64 `json:"wal_errors"`
	// Panics counts HTTP handler panics recovered into 500 responses.
	Panics uint64 `json:"panics"`
}

// Server is the long-running query tier: one ingest goroutine feeding a
// mining.Session, one publisher goroutine turning its maintained results
// into atomically swapped immutable Views for readers, and a
// version-keyed query cache. All methods are safe for concurrent use;
// the query methods never block on ingestion, maintenance or publishing.
type Server struct {
	cfg     Config
	session *mining.Session
	view    atomic.Pointer[View]
	cache   *lruCache

	ops     chan queued
	flushCh chan chan flushReply
	quit    chan struct{}
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool

	log          *wal.Log
	lastSnapOps  uint64      // ingest-goroutine owned after New
	rankScratch  rankScratch // newQueryIndex scratch, publisher owned after New
	recovered    bool
	recoveredOps uint64
	ready        atomic.Bool

	consumed     atomic.Uint64
	maintains    atomic.Uint64
	fullRuns     atomic.Uint64
	ingestErrors atomic.Uint64
	walErrors    atomic.Uint64
	snapshots    atomic.Uint64
	panics       atomic.Uint64
}

// queued is one queue entry in flight through the ingest queue: the ops
// of one Enqueue call or of one append request, persisted, applied and
// acknowledged together, with the ack channel a durable caller blocks on
// (nil for fire-and-forget).
type queued struct {
	ops []Op
	ack chan error
}

// reply delivers the persistence outcome without ever blocking (ack is
// buffered and written exactly once).
func (q queued) reply(err error) {
	if q.ack != nil {
		q.ack <- err
	}
}

// flushReply is the synchronous answer to a Flush request.
type flushReply struct {
	view *View
	err  error
}

// New builds a server over an initial database (nil or empty starts
// empty), publishes the initial view (version 1 when the store is
// non-empty), and starts the ingest loop. Close releases it.
//
// With durability configured, New first recovers the data directory:
// load the newest valid snapshot, replay the log tail through the live
// apply path, truncate at the first torn record. A recovered state takes
// precedence over db — the initial database seeds only a fresh
// directory, where it is immediately snapshotted so that a crash before
// the first periodic snapshot cannot lose it.
func New(db *mining.DB, cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   newLRUCache(cfg.CacheSize),
		ops:     make(chan queued, cfg.QueueSize),
		flushCh: make(chan chan flushReply),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	var rec *wal.Recovery
	if cfg.FS != nil || cfg.DataDir != "" {
		fsys := cfg.FS
		if fsys == nil {
			if fsys, err = wal.DirFS(cfg.DataDir); err != nil {
				return nil, fmt.Errorf("serve: data dir: %w", err)
			}
		}
		if s.log, rec, err = wal.Open(fsys, wal.Options{Policy: cfg.Fsync}); err != nil {
			return nil, fmt.Errorf("serve: opening wal: %w", err)
		}
	}
	if rec != nil && (rec.Snapshot != nil || rec.Ops > 0) {
		// The directory has state: it wins over the caller's initial db.
		s.recovered = true
		rows := make([][]int, len(rec.Snapshot))
		for i, tx := range rec.Snapshot {
			rows[i] = tx
		}
		if db, err = mining.NewDB(rows); err != nil {
			s.log.Close()
			return nil, fmt.Errorf("serve: recovered snapshot: %w", err)
		}
	}
	opts := append([]mining.Option{mining.MinSupport(cfg.MinSupport)}, cfg.Options...)
	session, err := mining.NewSession(db, opts...)
	if err != nil {
		if s.log != nil {
			s.log.Close()
		}
		return nil, err
	}
	s.session = session
	s.publish(newView(0, 0, mining.MaintainStats{}, nil, nil, nil)) // version 0: empty until the first maintain
	fail := func(err error) (*Server, error) {
		session.Close()
		if s.log != nil {
			s.log.Close()
		}
		return nil, err
	}
	if rec != nil {
		s.consumed.Store(rec.SnapshotOps)
		s.lastSnapOps = rec.SnapshotOps
		for _, op := range rec.Tail {
			s.apply(Op{Kind: OpKind(op.Kind), Items: op.Items, TID: op.TID})
		}
		s.recoveredOps = s.consumed.Load()
		switch {
		case !s.recovered && db.Len() > 0:
			// Fresh directory seeded from db: snapshot it now, or a crash
			// before the first periodic snapshot would recover empty.
			if err := s.writeSnapshot(); err != nil {
				return fail(fmt.Errorf("serve: initial snapshot: %w", err))
			}
		case rec.Truncated || rec.Ops > rec.SnapshotOps:
			// Compact the replayed tail so the next recovery starts from
			// here. A failed snapshot leaves the log appending to the
			// segment recovery reads, so failure costs a longer replay.
			s.compact()
		}
	}
	if db.Len() > 0 || s.consumed.Load() > 0 {
		w := s.maintain(context.Background())
		if w.err != nil {
			return fail(w.err)
		}
		if err := s.publishMaintained(w); err != nil {
			return fail(err)
		}
	}
	s.ready.Store(true)
	//lint:ignore invcheck/goroutines loop is joined by Close, which signals s.quit and blocks on <-s.done until the goroutine exits
	go s.loop()
	return s, nil
}

// View returns the current published view (never nil).
func (s *Server) View() *View { return s.view.Load() }

// publish swaps the served view pointer. It is the only function that
// may store s.view (enforced by the invcheck atomicpublish analyzer):
// readers dereference the pointer exactly once and the query cache
// keys on the view's version, so centralizing the swap is what keeps
// version monotonicity and ops stamping auditable.
func (s *Server) publish(v *View) { s.view.Store(v) }

// Ready reports whether startup — WAL recovery, tail replay and the
// first publish — has completed. The HTTP readiness endpoint serves 503
// until it returns true.
func (s *Server) Ready() bool { return s.ready.Load() }

// Recovered reports the op count reconstructed from the WAL at startup
// and whether the data directory held any prior state (in which case the
// initial database passed to New was ignored).
func (s *Server) Recovered() (ops uint64, found bool) {
	return s.recoveredOps, s.recovered
}

// Stats returns a point-in-time counter snapshot.
func (s *Server) Stats() Stats {
	v := s.View()
	hits, misses := s.cache.counters()
	return Stats{
		Version:      v.Version(),
		NumTx:        v.NumTx(),
		Ops:          s.consumed.Load(),
		QueueLen:     len(s.ops),
		Maintains:    s.maintains.Load(),
		FullRuns:     s.fullRuns.Load(),
		IngestErrors: s.ingestErrors.Load(),
		CacheHits:    hits,
		CacheMisses:  misses,
		Durable:      s.log != nil,
		RecoveredOps: s.recoveredOps,
		Snapshots:    s.snapshots.Load(),
		WALErrors:    s.walErrors.Load(),
		Panics:       s.panics.Load(),
	}
}

// Enqueue adds one op to the bounded ingest queue, blocking while the
// queue is full (backpressure). It returns ErrServerClosed after Close
// and ctx.Err() if the context ends first.
//
// Without durability the call returns as soon as the op is queued. With
// a WAL attached it blocks until the op is persisted per the sync policy
// — a nil return under wal.SyncAlways means the op is fsynced and cannot
// be lost — and returns the persistence error otherwise (after the log
// fail-stops, every call errors). A context cancellation while waiting
// for the ack leaves the op in flight: it may still be applied.
func (s *Server) Enqueue(ctx context.Context, op Op) error {
	return s.enqueue(ctx, []Op{op})
}

// enqueue is Enqueue for a run of ops that take one queue entry: they are
// persisted in one append run with one sync, then applied and
// acknowledged together, or, if persisting fails, none is applied and
// the one error answers them all. A context that ends before the entry
// is queued leaves every op unapplied; one that ends while waiting for
// the ack leaves them all in flight.
func (s *Server) enqueue(ctx context.Context, ops []Op) error {
	select {
	case <-s.quit:
		return ErrServerClosed
	default:
	}
	q := queued{ops: ops}
	if s.log != nil {
		q.ack = make(chan error, 1)
	}
	select {
	case s.ops <- q:
	case <-s.quit:
		return ErrServerClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	if q.ack == nil {
		return nil
	}
	select {
	case err := <-q.ack:
		return err
	case <-s.done:
		// The loop exited; Close's drain acks everything it ingested.
		select {
		case err := <-q.ack:
			return err
		default:
			return ErrServerClosed
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Flush synchronously drains the queue and, if any op was applied since
// the last Maintain (or nothing was ever maintained), runs one Maintain
// — the deterministic trigger tests and bulk loads use. It returns once
// the publisher has published every Maintain handed off before it, this
// one included, so the returned view covers every op it drained. With a
// WAL attached, Flush implies fsync: every op it drained is durable
// before it returns.
func (s *Server) Flush(ctx context.Context) (*View, error) {
	reply := make(chan flushReply, 1)
	select {
	case s.flushCh <- reply:
	case <-s.quit:
		return nil, ErrServerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-reply:
		return r.view, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops the ingest loop and releases the session. With a WAL
// attached the shutdown is a graceful drain: queued ops are persisted,
// applied and acknowledged, the log is synced, a final snapshot written,
// and the log closed. Every Maintain already handed off is published
// before Close returns; ops applied since are not maintained. It is
// idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	s.closeMu.Unlock()
	<-s.done
	return s.session.Close()
}

// loop is the single ingest goroutine: it owns every session mutation
// and every log write after New. It hands each Maintain's result to the
// publisher goroutine it starts here and joins on exit, after the
// graceful drain, so every handed-off view is published before Close
// returns.
func (s *Server) loop() {
	defer close(s.done)
	work := make(chan publishWork, 1)
	published := make(chan struct{})
	go s.publisher(work, published)
	defer func() {
		close(work)
		<-published
	}()
	var tick <-chan time.Time
	if s.cfg.MaintainEvery > 0 {
		t := time.NewTicker(s.cfg.MaintainEvery)
		defer t.Stop()
		tick = t.C
	}
	var syncTick <-chan time.Time
	if s.log != nil && s.cfg.Fsync == wal.SyncInterval {
		t := time.NewTicker(s.cfg.FsyncEvery)
		defer t.Stop()
		syncTick = t.C
	}
	// maintained reports whether any view past New's empty version 0 was
	// handed off; a Flush before that publishes one even with nothing dirty.
	dirty, maintained := 0, s.View().Version() > 0
	maintain := func() publishWork {
		w := s.maintain(context.Background())
		if w.err == nil {
			dirty, maintained = 0, true
		}
		return w
	}
	for {
		select {
		case q := <-s.ops:
			batch := append([]queued{q}, s.drainQueued()...)
			dirty += s.ingest(batch)
			s.maybeSnapshot()
			if dirty >= s.cfg.MaintainAfter {
				work <- maintain()
			}
		case <-syncTick:
			if err := s.log.Sync(); err != nil {
				s.walErrors.Add(1)
			}
		case <-tick:
			if dirty > 0 {
				work <- maintain()
			}
		case reply := <-s.flushCh:
			dirty += s.ingest(s.drainQueued())
			var w publishWork
			if s.log != nil {
				if w.err = s.log.Sync(); w.err != nil {
					s.walErrors.Add(1)
				}
			}
			if w.err == nil && (dirty > 0 || !maintained) {
				w = maintain()
			}
			w.reply = reply
			s.maybeSnapshot()
			work <- w
		case <-s.quit:
			s.shutdown()
			return
		}
	}
}

// publisher is the publish goroutine: it turns each handed-off Maintain
// result into a View — rules at the floor, query index — and publishes
// it, in hand-off order, so versions stay strictly monotone and each
// view's Ops is the op count its Maintain saw. A Flush's reply rides on
// its work item and is answered once that item is published, so Flush
// returns the view that covers every op it drained. It exits when loop
// closes work, after the last item.
func (s *Server) publisher(work <-chan publishWork, published chan<- struct{}) {
	defer close(published)
	for w := range work {
		err := s.publishMaintained(w)
		if w.reply != nil {
			if w.err != nil {
				err = w.err
			}
			w.reply <- flushReply{view: s.View(), err: err}
		}
	}
}

// shutdown is the graceful drain on Close: ingest what is already
// queued (persisting and acking it), then sync, snapshot and close the
// log.
func (s *Server) shutdown() {
	s.ingest(s.drainQueued())
	if s.log == nil {
		return
	}
	if err := s.log.Sync(); err != nil {
		s.walErrors.Add(1)
	} else if s.consumed.Load() > s.lastSnapOps {
		s.compact()
	}
	if err := s.log.Close(); err != nil {
		s.walErrors.Add(1)
	}
}

// drainQueued consumes every op already sitting in the queue without
// blocking — the ingest batch.
func (s *Server) drainQueued() []queued {
	var batch []queued
	for {
		select {
		case q := <-s.ops:
			batch = append(batch, q)
		default:
			return batch
		}
	}
}

// ingest is the group commit: persist every op of the batch's entries to
// the log, sync once (under wal.SyncAlways), then apply and acknowledge
// each entry. If any persistence step fails, the entire batch is
// rejected — nothing is applied, every waiter gets the error — because
// the log is fail-stop and acknowledging unpersisted ops would break the
// durability contract. Returns the number of ops that changed the store.
func (s *Server) ingest(batch []queued) int {
	if len(batch) == 0 {
		return 0
	}
	var perr error
	if s.log != nil {
		perr = s.persist(batch)
	}
	applied := 0
	for _, q := range batch {
		if perr != nil {
			s.walErrors.Add(1)
			q.reply(perr)
			continue
		}
		for _, op := range q.ops {
			applied += s.apply(op)
		}
		q.reply(nil)
	}
	return applied
}

// persist appends every op of batch to the log, in order, and syncs once
// under wal.SyncAlways. It stops at the first error.
func (s *Server) persist(batch []queued) error {
	for _, q := range batch {
		for _, op := range q.ops {
			if _, err := s.log.Append(wal.Op{Kind: int(op.Kind), Items: op.Items, TID: op.TID}); err != nil {
				return err
			}
		}
	}
	if s.cfg.Fsync == wal.SyncAlways {
		return s.log.Sync()
	}
	return nil
}

// apply performs one op against the session, returning 1 if the store
// changed and 0 if the store rejected the op (counted, dropped). Either
// way the op sequence advances. Recovery replays the WAL tail through
// this same path, so live and replayed streams skip identically.
func (s *Server) apply(op Op) int {
	s.consumed.Add(1)
	var err error
	switch op.Kind {
	case OpAppend:
		err = s.session.Append(op.Items...)
	case OpDelete:
		_, err = s.session.DeleteAt(op.TID)
	default:
		err = fmt.Errorf("serve: unknown op kind %d", op.Kind)
	}
	if err != nil {
		s.ingestErrors.Add(1)
		return 0
	}
	return 1
}

// maybeSnapshot writes a WAL snapshot when SnapshotEvery ops have
// accumulated since the last one.
func (s *Server) maybeSnapshot() {
	if s.log == nil || s.cfg.SnapshotEvery <= 0 {
		return
	}
	if s.consumed.Load()-s.lastSnapOps >= uint64(s.cfg.SnapshotEvery) {
		s.compact()
	}
}

// compact is the best-effort snapshot behind the three compaction sites:
// after a replayed startup, on shutdown, and every SnapshotEvery ops. None
// of them is what makes an op durable — an acked op is already synced in
// the log — so a failed compaction must not stop ingestion the way a
// failed append does. That holds because wal.Log.SnapshotFunc removes the
// segment it created before its commit point (or fail-stops the log), so
// the ops acked after a failed compaction land where recovery reads them;
// the oracle's compaction-fault op checks it across a power cut.
func (s *Server) compact() {
	//lint:ignore invcheck/walfailstop compaction is best-effort at every call site — writeSnapshot counts its failures in walErrors, and a failed wal SnapshotFunc removes its new segment or fail-stops the log, so the previous snapshot plus the tail, later acked ops included, stay authoritative for recovery
	s.writeSnapshot()
}

// writeSnapshot persists the session's current rows as the fold of the
// consumed op prefix, truncating the log. Errors are counted and leave
// the previous snapshot authoritative.
func (s *Server) writeSnapshot() error {
	ops := s.consumed.Load()
	if err := s.log.SnapshotFunc(ops, s.session.AppendStable); err != nil {
		s.walErrors.Add(1)
		return err
	}
	s.lastSnapOps = ops
	s.snapshots.Add(1)
	return nil
}

// publishWork is one hand-off from the ingest goroutine to the
// publisher: a maintained state to publish (when view is set), the Flush
// waiting on it (nil when none) and the Maintain or sync error that Flush
// gets back.
type publishWork struct {
	view  bool
	ops   uint64
	stats mining.MaintainStats
	res   *mining.Result // nil with view set: the store is empty
	reply chan flushReply
	err   error
}

// maintain runs one Maintain over the session and returns what to
// publish. An empty store yields an empty view (readers must never keep
// seeing deleted data); any other error is counted and returned in err
// with no view, so the current one stays until the next trigger retries.
func (s *Server) maintain(ctx context.Context) publishWork {
	ops := s.consumed.Load()
	res, stats, err := s.session.Maintain(ctx)
	if err != nil && !errors.Is(err, mining.ErrEmptyDB) {
		s.ingestErrors.Add(1)
		return publishWork{err: err}
	}
	return publishWork{view: true, ops: ops, stats: stats, res: res}
}

// publishMaintained derives the rules and the query index of w's state
// and publishes the view, one version past the current one; w without a
// view publishes nothing. It takes no session lock: a maintained Result
// is immutable. New calls it for the first publish; after that only the
// publisher goroutine does.
func (s *Server) publishMaintained(w publishWork) error {
	if !w.view {
		return nil
	}
	var rules []mining.Rule
	if w.res != nil {
		var err error
		if rules, err = w.res.Rules(s.cfg.RuleFloor); err != nil {
			s.ingestErrors.Add(1)
			return err
		}
	}
	s.publish(newView(s.View().version+1, w.ops, w.stats, w.res, rules, &s.rankScratch))
	s.maintains.Add(1)
	if w.stats.FullRun {
		s.fullRuns.Add(1)
	}
	return nil
}
