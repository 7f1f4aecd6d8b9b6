package mining

import (
	"context"
	"iter"
	"slices"
	"sync"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// MaintainStats describes the work one Session.Maintain call did.
type MaintainStats struct {
	// NumShards is the store's shard count.
	NumShards int
	// DirtyShards is how many shards the update touched (version changed
	// or new); every shard on a full run. It no longer measures work.
	DirtyShards int
	// RecountedTx is how many transactions were counted: the delta — one
	// per Append or DeleteAt since the last Maintain — or, on a full run,
	// every live transaction.
	RecountedTx int
	// FullRun reports a fall-back to a full re-mine, with Reason saying
	// why ("" when the update stayed incremental).
	FullRun bool
	Reason  string
}

// Session is the stateful mining handle: it owns an updatable sharded
// store and keeps a mined frequent set current across Append and DeleteAt
// — the first-class form of the incremental maintenance backend that was
// previously reachable only through CLI plumbing.
//
// Mine (or Maintain, which also reports work stats) brings the result up
// to date: the first call runs a full mine and counts a tracked candidate
// set; later calls count only the transactions appended or deleted since
// (the store journals them), so a Maintain costs in proportion to the
// update, not to the store. It falls back to a full re-mine only when the
// maintained frequent set's negative border is crossed. Every returned
// Result is byte-identical to a from-scratch run over the store's current
// contents.
//
// A full run is one level-wise mine of the store at the tracking support
// whose pass counts become the maintained totals, so the store is counted
// once; the Algorithm option is validated but does not change it. With
// Transport its scans run on the distributed workers, which keep the
// store's shards between full runs and receive only dirty ones. Close
// releases the transport's worker goroutines.
//
// A Session serialises its own methods with a mutex, so it is safe for
// concurrent use; mutations simply block while a Maintain is running.
type Session struct {
	mu       sync.Mutex
	cfg      *config
	store    *transactions.ShardedDB
	inc      *assoc.Incremental
	attached bool
	closed   bool
	last     *Result
}

// NewSession creates a session over a copy-free bulk load of db (which
// must not be mutated afterwards); a nil db starts empty. The options are
// the same set Mine takes, plus the session-only ShardCap; MinSupport is
// fixed for the session's lifetime. The session tracks candidates at 0.8x
// the support, so itemsets near the threshold already have counts and
// small updates stay incremental; results are exact regardless.
func NewSession(db *DB, opts ...Option) (*Session, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	inc := &assoc.Incremental{Workers: cfg.workers}
	inc.SetPassHook(cfg.passHook())
	if cfg.transport != nil {
		if inc.Remote, err = cfg.distributed(); err != nil {
			return nil, err
		}
	} else if !slices.Contains(Algorithms(), cfg.algorithm) {
		return nil, cfg.unknownAlgorithm()
	}
	var store *transactions.ShardedDB
	if db != nil && db.Len() > 0 {
		store = transactions.NewShardedDBFrom(db.db, cfg.shardCap)
	} else {
		store = transactions.NewShardedDB(cfg.shardCap)
	}
	return &Session{cfg: cfg, store: store, inc: inc}, nil
}

// Len returns the number of live transactions in the store.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Len()
}

// Append adds one transaction (deduplicated, sorted; negative ids are
// rejected). The result is stale until the next Mine or Maintain.
func (s *Session) Append(items ...int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.store.Append(items...)
}

// DeleteAt removes the transaction with global id tid (its position in
// the live concatenation, 0-based) and returns it. Later transactions'
// ids shift down by one. The result is stale until the next Mine or
// Maintain.
func (s *Session) DeleteAt(tid int) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	tx, err := s.store.DeleteAt(tid)
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// Mine brings the frequent set up to date with the store and returns it:
// a full mine on the first call, an incremental maintain afterwards. An
// empty store returns ErrEmptyDB. Cancelling ctx aborts promptly with
// ctx.Err(), leaves the maintained state consistent, and the next call
// picks up where this one left off.
func (s *Session) Mine(ctx context.Context) (*Result, error) {
	res, _, err := s.Maintain(ctx)
	return res, err
}

// Maintain is Mine with the work stats: how many transactions were
// counted, how many shards the update touched, and whether (and why) it
// fell back to a full re-mine.
func (s *Session) Maintain(ctx context.Context) (*Result, MaintainStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, MaintainStats{}, ErrClosed
	}
	var (
		res   *assoc.Result
		stats assoc.MaintainStats
		err   error
	)
	if !s.attached {
		res, stats, err = s.inc.AttachContext(ctx, s.store, s.cfg.minSupport)
		if err == nil {
			s.attached = true
		}
	} else {
		res, stats, err = s.inc.MaintainContext(ctx)
	}
	if err != nil {
		return nil, MaintainStats(stats), err
	}
	s.last = wrapResult(res)
	return s.last, MaintainStats(stats), nil
}

// Snapshot returns the store's current live transactions as an immutable
// DB. It copies the store's row list, and rows are never modified in
// place, so mutating the session afterwards — even while mining the
// snapshot — leaves the snapshot as it was. The rows themselves are
// shared with the store; treat them as read-only. Useful for verifying a
// maintained result against a one-shot Mine.
func (s *Session) Snapshot() *DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &DB{db: s.store.Snapshot()}
}

// All returns an iterator over the store's live transactions in id
// order, one sorted row of item ids each, as the store was when All was
// called: mutating the session afterwards, even from the loop body, does
// not change what it yields. Unlike Snapshot it does not copy the row
// list. The rows are shared with the store; treat them as read-only.
func (s *Session) All() iter.Seq[[]int] {
	s.mu.Lock()
	parts := make([][]transactions.Itemset, s.store.NumShards())
	for i := range parts {
		sh, _ := s.store.ShardView(i)
		parts[i] = sh.Transactions
	}
	s.mu.Unlock()
	return func(yield func([]int) bool) {
		for _, part := range parts {
			for _, row := range part {
				if !yield(row) {
					return
				}
			}
		}
	}
}

// AppendStable appends the store's live transactions, in id order, to dst
// in the stable binary snapshot format of the durability layer
// (internal/wal) and returns the extended slice. The store keeps each
// shard's encoding between calls and re-encodes only the shards mutated
// since, so a call costs the shards that changed plus one copy of the
// bytes.
func (s *Session) AppendStable(dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.AppendStable(dst)
}

// Result returns the last maintained result (nil before the first
// successful Mine). It may be stale with respect to later mutations.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Rules derives the association rules of the last maintained frequent
// set afresh (Result.Rules of the session's Result): the itemset counts
// are maintained incrementally, while the rules are one pass over them
// that writes each rule once. It returns ErrClosed after Close and
// assoc's ErrNotAttached error before the first successful Mine.
func (s *Session) Rules(minConfidence float64) ([]Rule, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.last == nil {
		return nil, assoc.ErrNotAttached
	}
	return s.last.Rules(minConfidence)
}

// Close detaches the maintainer (the store stops journalling mutations)
// and releases the transport's resources (the distributed worker
// goroutines). The session is unusable afterwards;
// Close is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.inc.Detach()
	if s.inc.Remote != nil {
		return s.inc.Remote.Close()
	}
	return nil
}
