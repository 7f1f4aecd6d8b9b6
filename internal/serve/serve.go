// Package serve is the long-running query tier over mining.Session: the
// piece that turns the incremental/distributed mining library into a
// service handling thousands of concurrent readers while an update
// stream runs.
//
// # Snapshot-consistency contract
//
// The server separates one writer from many readers. A single ingest
// goroutine drains a bounded queue of Ops (appends and deletes) into the
// session and triggers Maintain on a dirty-op threshold or a timer. Each
// completed Maintain publishes an immutable View — version, maintained
// Result, the rule set at the configured confidence floor, and the
// result's canonical bytes — behind one atomic pointer swap
// (copy-on-write). Readers load the pointer and never take a lock, so
// queries never block the maintainer and the maintainer never blocks
// queries. The contract, pinned by the concurrency property tests:
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
// on the ingest goroutine; four flat allocations, linear in the rule set
// plus two sorts): the rule ids ranked by support and by lift — the
// published order already is the confidence ranking — and two posting
// lists keyed by item, the rules whose antecedent contains the item and
// the rules whose antecedent starts with it. A query then costs the
// postings it walks plus the K rules it returns, not the rule set: top-k
// with no antecedent reads the head of one ranking; with an antecedent it
// walks the shortest posting list of the asked items, stops at the
// confidence cutoff, and ranks only what matched; a recommendation walks
// the first-item postings of the basket's items, which name every rule
// whose antecedent can lie inside the basket exactly once, and ranks the
// matches. The answers are identical to filtering and stably sorting the
// whole rule set (TestIndexMatchesScan keeps that scan as its reference).
//
// Results are also kept in a small LRU keyed on (view version, normalized
// query), so a version bump can never serve a stale entry: the new
// version misses by construction. With the index a miss costs about
// three hits, so the cache no longer decides read latency.
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

	"repro/internal/transactions"
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
	// QueueSize bounds the ingest queue (0 = DefaultQueueSize).
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
// it never changes after publication. A View with Empty() true reports
// an empty store (version 0 before the first publish, or the store was
// drained by deletes).
type View struct {
	version uint64
	ops     uint64
	numTx   int
	stats   mining.MaintainStats
	res     *mining.Result
	rules   []mining.Rule
	canon   []byte
	index   queryIndex
}

// newView is the one constructor of a View: whatever gets published has
// its query index built here, exactly once. A nil res is an empty store
// (no result, no canonical bytes); rules must be in GenerateRules order.
func newView(version, ops uint64, stats mining.MaintainStats, res *mining.Result, rules []mining.Rule) *View {
	v := &View{version: version, ops: ops, stats: stats, res: res, rules: rules, index: newQueryIndex(rules)}
	if res != nil {
		v.numTx, v.canon = res.NumTx(), res.Canonical()
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

// MaintainStats reports the work of the Maintain that produced this view.
func (v *View) MaintainStats() mining.MaintainStats { return v.stats }

// Empty reports whether the view holds no mined result (empty store).
func (v *View) Empty() bool { return v.res == nil }

// Rules returns the published rule set at the server's confidence floor,
// in assoc.GenerateRules order (confidence desc, support desc, then
// antecedent and consequent order). The query index counts on the
// confidence part: a rule's position is its confidence rank. The slice is
// shared and read-only.
func (v *View) Rules() []mining.Rule { return v.rules }

// Canonical returns the deterministic byte encoding of the view's
// frequent levels — byte-identical to Result.Canonical of a from-scratch
// mine at this version. The slice is shared and read-only; nil for an
// empty view.
func (v *View) Canonical() []byte { return v.canon }

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
	// QueueLen is the current ingest-queue depth.
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
// mining.Session, an atomically swapped immutable View for readers, and
// a version-keyed query cache. All methods are safe for concurrent use;
// the query methods never block on ingestion or maintenance.
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
	lastSnapOps  uint64 // ingest-goroutine owned after New
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

// queued is one op in flight through the ingest queue, with the ack
// channel a durable Enqueue blocks on (nil for fire-and-forget).
type queued struct {
	op  Op
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
	s.publish(newView(0, 0, mining.MaintainStats{}, nil, nil)) // version 0: empty until the first maintain
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
			// here; failure just means a longer replay.
			s.compact()
		}
	}
	if db.Len() > 0 || s.consumed.Load() > 0 {
		if err := s.maintainPublish(context.Background()); err != nil {
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

// Durable reports whether a write-ahead log is attached.
func (s *Server) Durable() bool { return s.log != nil }

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
	select {
	case <-s.quit:
		return ErrServerClosed
	default:
	}
	q := queued{op: op}
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
// the last publish (or nothing was ever published), runs one Maintain
// and publishes the resulting view — the deterministic trigger tests and
// bulk loads use. With a WAL attached, Flush implies fsync: every op it
// drained is durable before it returns. It returns the now-current view.
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
// and the log closed. It is idempotent.
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
// and every log write after New.
func (s *Server) loop() {
	defer close(s.done)
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
	dirty := 0
	for {
		select {
		case q := <-s.ops:
			batch := append([]queued{q}, s.drainQueued()...)
			dirty += s.ingest(batch)
			s.maybeSnapshot()
			if dirty >= s.cfg.MaintainAfter {
				if s.maintainPublish(context.Background()) == nil {
					dirty = 0
				}
			}
		case <-syncTick:
			if err := s.log.Sync(); err != nil {
				s.walErrors.Add(1)
			}
		case <-tick:
			if dirty > 0 {
				if s.maintainPublish(context.Background()) == nil {
					dirty = 0
				}
			}
		case reply := <-s.flushCh:
			dirty += s.ingest(s.drainQueued())
			var err error
			if s.log != nil {
				if err = s.log.Sync(); err != nil {
					s.walErrors.Add(1)
				}
			}
			if err == nil && (dirty > 0 || s.View().Version() == 0) {
				if err = s.maintainPublish(context.Background()); err == nil {
					dirty = 0
				}
			}
			s.maybeSnapshot()
			reply <- flushReply{view: s.View(), err: err}
		case <-s.quit:
			s.shutdown()
			return
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

// ingest is the group commit: persist the whole batch to the log, sync
// once (under wal.SyncAlways), then apply and acknowledge. If any
// persistence step fails, the entire batch is rejected — nothing is
// applied, every waiter gets the error — because the log is fail-stop
// and acknowledging unpersisted ops would break the durability contract.
// Returns the number of ops that changed the store.
func (s *Server) ingest(batch []queued) int {
	if len(batch) == 0 {
		return 0
	}
	var perr error
	if s.log != nil {
		for _, q := range batch {
			op := q.op
			if _, err := s.log.Append(wal.Op{Kind: int(op.Kind), Items: op.Items, TID: op.TID}); err != nil {
				perr = err
				break
			}
		}
		if perr == nil && s.cfg.Fsync == wal.SyncAlways {
			perr = s.log.Sync()
		}
	}
	applied := 0
	for _, q := range batch {
		if perr != nil {
			s.walErrors.Add(1)
			q.reply(perr)
			continue
		}
		applied += s.apply(q.op)
		q.reply(nil)
	}
	return applied
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
// failed append does.
func (s *Server) compact() {
	//lint:ignore invcheck/walfailstop compaction is best-effort at every call site — acked ops are already synced in the log, writeSnapshot counts its failures in walErrors, and the previous snapshot plus the un-compacted tail stay authoritative for recovery
	s.writeSnapshot()
}

// writeSnapshot persists the session's current rows as the fold of the
// consumed op prefix, truncating the log. Errors are counted and leave
// the previous snapshot authoritative.
func (s *Server) writeSnapshot() error {
	rows := s.session.Snapshot().Rows()
	txs := make([]transactions.Itemset, len(rows))
	for i, r := range rows {
		txs[i] = transactions.Itemset(r)
	}
	ops := s.consumed.Load()
	if err := s.log.Snapshot(txs, ops); err != nil {
		s.walErrors.Add(1)
		return err
	}
	s.lastSnapOps = ops
	s.snapshots.Add(1)
	return nil
}

// maintainPublish runs one Maintain over the session and publishes the
// immutable result view. An empty store publishes an empty view (readers
// must never keep seeing deleted data); any other error leaves the
// current view in place for the next trigger to retry.
func (s *Server) maintainPublish(ctx context.Context) error {
	prev := s.view.Load()
	ops := s.consumed.Load()
	res, mstats, err := s.session.Maintain(ctx)
	if err != nil {
		if errors.Is(err, mining.ErrEmptyDB) {
			s.publish(newView(prev.version+1, ops, mstats, nil, nil))
			s.maintains.Add(1)
			return nil
		}
		s.ingestErrors.Add(1)
		return err
	}
	rules, err := s.session.Rules(s.cfg.RuleFloor)
	if err != nil {
		s.ingestErrors.Add(1)
		return err
	}
	s.publish(newView(prev.version+1, ops, mstats, res, rules))
	s.maintains.Add(1)
	if mstats.FullRun {
		s.fullRuns.Add(1)
	}
	return nil
}
