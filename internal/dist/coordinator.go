package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Stats counts a coordinator's transport traffic and fault handling — the
// observable side of the dirty-shard protocol and of failover. Tests
// assert ShippedShards to prove clean shards are never re-shipped, bench's
// mine_dist workload pins the traffic totals (dist.calls,
// dist.shipped_shards), and dmbench -exp F1 reports the fault counters as
// the recovery trail.
type Stats struct {
	// ShippedShards counts shard snapshots that actually arrived (the
	// Ship call succeeded); a failover re-ship counts again.
	ShippedShards int
	// ShipCalls counts Ship requests issued (one per worker with
	// outstanding shards, per delivery round).
	ShipCalls int
	// CountCalls counts scan requests (CountItems/Pairs/Candidates and
	// BuildTree) issued across all workers, including failover re-scans.
	CountCalls int
	// Retries counts extra attempts beyond each call's first.
	Retries int
	// Failovers counts workers marked down and drained of their shards.
	Failovers int
	// WorkersDown is the currently-down gauge at snapshot time.
	WorkersDown int
}

// Coordinator owns shard placement and buffer merging: Sync ships shard
// snapshots to their workers (round-robin by id, re-shipping only versions
// the worker has not seen), and the Count*/BuildTree methods fan a scan
// out over every worker holding shards and fold the mergeable replies with
// plain integer adds (FP-trees are gathered into a forest, whose
// projections do the adding), so results are byte-identical to a local
// scan.
//
// Under faults (see the package doc) every call gets Retry's deadline and
// retry budget; a worker that exhausts it is marked down, its shards are
// re-placed on the survivors and re-shipped from retained payloads, and
// the scan round repeats for the shards still missing a merged buffer —
// each shard's buffer is merged exactly once, so a scan either returns
// the exact totals or an error wrapping a sentinel, never a partial
// merge. A coordinator is not safe for concurrent use; the engines drive
// it one pass at a time, like every other counting structure here.
type Coordinator struct {
	t      Transport
	policy RetryPolicy

	assign   map[int]int          // shard id -> worker
	shipped  map[int]uint64       // shard id -> last delivered version
	payloads map[int]ShardPayload // retained current payloads, for re-ship
	down     map[int]bool         // workers marked dead
	placed   int                  // round-robin placement cursor
	current  []int                // shard ids of the last Sync, sorted

	statsMu sync.Mutex
	stats   Stats
}

// NewCoordinator returns a coordinator over t with nothing placed yet and
// the default RetryPolicy (3 attempts, no per-call deadline).
func NewCoordinator(t Transport) *Coordinator {
	return &Coordinator{
		t:        t,
		assign:   make(map[int]int),
		shipped:  make(map[int]uint64),
		payloads: make(map[int]ShardPayload),
		down:     make(map[int]bool),
	}
}

// SetRetry replaces the coordinator's retry policy (zero fields take the
// documented defaults). Call it before mining, not mid-pass.
func (c *Coordinator) SetRetry(p RetryPolicy) { c.policy = p }

// Transport returns the transport the coordinator drives.
func (c *Coordinator) Transport() Transport { return c.t }

// Stats returns a snapshot of the traffic and fault counters.
func (c *Coordinator) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	s := c.stats
	s.WorkersDown = len(c.down)
	return s
}

// Reset forgets all placement and version state (the traffic counters
// survive), so the next Sync re-ships everything — required when the
// underlying database identity changes and shard ids would otherwise
// collide with stale replicas. Worker health is transport-scoped, not
// placement-scoped, so down markers survive Reset; Revive clears them.
func (c *Coordinator) Reset() {
	c.assign = make(map[int]int)
	c.shipped = make(map[int]uint64)
	c.payloads = make(map[int]ShardPayload)
	c.current = nil
	c.placed = 0
}

// Revive clears the down markers, letting the next Sync place shards on
// previously-failed workers again — the probe hook for a serving tier
// that knows a worker came back. Their replicas are gone from the
// coordinator's books (failover dropped the shipped versions), so they
// are re-shipped before any scan trusts them.
func (c *Coordinator) Revive() {
	for w := range c.down {
		delete(c.down, w)
	}
}

// place returns the next healthy worker round-robin, or -1 if none.
func (c *Coordinator) place() int {
	n := c.t.NumWorkers()
	for i := 0; i < n; i++ {
		w := c.placed % n
		c.placed++
		if !c.down[w] {
			return w
		}
	}
	return -1
}

// Sync makes the workers' replicas match shards: unseen ids (and ids
// stranded on a down worker) are placed round-robin over healthy workers,
// and exactly the payloads whose version differs from the last delivered
// one move over the transport, with retries and failover. The shard set
// becomes the scan target of subsequent Count*/BuildTree calls; its
// payloads are retained (shared slices, not copies) so failover can
// re-ship without the caller's help.
func (c *Coordinator) Sync(ctx context.Context, shards []ShardPayload) error {
	if c.t.NumWorkers() < 1 {
		return ErrNoWorkers
	}
	c.current = c.current[:0]
	for _, sh := range shards {
		c.current = append(c.current, sh.ID)
		c.payloads[sh.ID] = sh
		w, ok := c.assign[sh.ID]
		if ok && c.down[w] {
			delete(c.shipped, sh.ID)
			ok = false
		}
		if !ok {
			w = c.place()
			if w < 0 {
				return fmt.Errorf("%w: cannot place shard %d", ErrNoHealthyWorkers, sh.ID)
			}
			c.assign[sh.ID] = w
		}
	}
	sort.Ints(c.current)
	if len(c.payloads) > len(c.current) {
		cur := make(map[int]bool, len(c.current))
		for _, id := range c.current {
			cur[id] = true
		}
		for id := range c.payloads {
			if !cur[id] {
				delete(c.payloads, id)
			}
		}
	}
	return c.shipOutstanding(ctx)
}

// shipOutstanding delivers every current shard whose retained payload
// version has not been delivered to its assigned worker, in rounds: each
// round groups outstanding shards by worker, ships concurrently, records
// deliveries, and fails unreachable workers over; the next round ships
// the re-placed shards. It returns once nothing is outstanding, so a nil
// return means every current shard verifiably lives on a healthy worker.
func (c *Coordinator) shipOutstanding(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		need := make(map[int][]ShardPayload)
		for _, id := range c.current {
			p := c.payloads[id]
			if v, ok := c.shipped[id]; ok && v == p.Version {
				continue
			}
			need[c.assign[id]] = append(need[c.assign[id]], p)
		}
		if len(need) == 0 {
			return nil
		}
		c.statsMu.Lock()
		c.stats.ShipCalls += len(need)
		c.statsMu.Unlock()
		workers := sortedKeys(need)
		errs := c.runPerWorker(workers, func(_, w int) error {
			return c.call(ctx, w, MethodShip, &ShipArgs{Shards: need[w]}, &ShipReply{})
		})
		for i, w := range workers {
			if errs[i] != nil {
				continue
			}
			c.statsMu.Lock()
			c.stats.ShippedShards += len(need[w])
			c.statsMu.Unlock()
			for _, sh := range need[w] {
				c.shipped[sh.ID] = sh.Version
			}
		}
		if err := c.handleRoundErrors(workers, errs); err != nil {
			return err
		}
	}
}

// handleRoundErrors processes one fan-out round's per-worker errors:
// retryable failures trigger failover (re-placement of the worker's
// shards), anything else aborts the scan as-is.
func (c *Coordinator) handleRoundErrors(workers []int, errs []error) error {
	for i, w := range workers {
		err := errs[i]
		if err == nil {
			continue
		}
		if !Retryable(err) {
			return err
		}
		if ferr := c.failover(w, err); ferr != nil {
			return ferr
		}
	}
	return nil
}

// failover marks w down and re-places every shard assigned to it
// round-robin over the healthy workers, dropping their delivered
// versions so the next shipOutstanding round re-ships them. cause is the
// call error that condemned the worker, kept in the returned error when
// no healthy worker remains.
func (c *Coordinator) failover(w int, cause error) error {
	if !c.down[w] {
		c.down[w] = true
		c.statsMu.Lock()
		c.stats.Failovers++
		c.statsMu.Unlock()
	}
	n := c.t.NumWorkers()
	var healthy []int
	for i := 0; i < n; i++ {
		if !c.down[i] {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		return fmt.Errorf("%w: worker %d was the last (cause: %w)", ErrNoHealthyWorkers, w, cause)
	}
	i := 0
	for _, id := range c.current {
		if c.assign[id] != w {
			continue
		}
		c.assign[id] = healthy[i%len(healthy)]
		i++
		delete(c.shipped, id)
	}
	return nil
}

// call is the retrying transport call: up to MaxAttempts tries, each
// under the policy's per-attempt deadline, with capped-exponential
// deterministically-jittered backoff between them. Only transport-level
// failures (wrapping ErrWorkerUnavailable or ErrCallTimeout) are retried.
func (c *Coordinator) call(ctx context.Context, w int, method string, args, reply any) error {
	p := c.policy.normalized()
	for attempt := 1; ; attempt++ {
		err := c.callOnce(ctx, w, method, args, reply, p.CallTimeout)
		if err == nil || !Retryable(err) || attempt >= p.MaxAttempts {
			return err
		}
		c.statsMu.Lock()
		c.stats.Retries++
		c.statsMu.Unlock()
		if serr := sleepContext(ctx, p.Backoff(w, attempt)); serr != nil {
			return serr
		}
	}
}

// callOnce runs one attempt under the per-attempt deadline, converting a
// deadline we imposed (parent context still live) into a wrapped
// ErrCallTimeout so the retry loop can tell our timeout from the
// caller's cancellation.
func (c *Coordinator) callOnce(ctx context.Context, w int, method string, args, reply any, timeout time.Duration) error {
	cctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	err := c.t.Call(cctx, w, method, args, reply)
	if err != nil && timeout > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: worker %d %s exceeded %v", ErrCallTimeout, w, method, timeout)
	}
	return err
}

// runPerWorker runs fn concurrently once per listed worker (i is the
// worker's index in the slice) and returns the per-worker errors,
// index-aligned with workers. fn must not touch coordinator state
// without its own synchronisation.
func (c *Coordinator) runPerWorker(workers []int, fn func(i, w int) error) []error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// sortedKeys returns m's keys ascending, so fan-outs and error handling
// walk workers in a deterministic order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// scatter runs one distributed scan with failover: rounds of
// (re-)delivering outstanding shards, fanning method out over the
// workers holding still-unmerged shards, and folding each successful
// reply with merge — exactly once per shard, in the calling goroutine,
// so merge needs no locking. Retryable worker failures trigger failover
// and another round; any other error aborts the scan.
func (c *Coordinator) scatter(ctx context.Context, method string, argsFor func(ids []int) any, newReply func() any, merge func(w int, reply any) error) error {
	pending := make(map[int]bool, len(c.current))
	for _, id := range c.current {
		pending[id] = true
	}
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.shipOutstanding(ctx); err != nil {
			return err
		}
		groups := make(map[int][]int)
		for _, id := range c.current {
			if pending[id] {
				groups[c.assign[id]] = append(groups[c.assign[id]], id)
			}
		}
		workers := sortedKeys(groups)
		c.statsMu.Lock()
		c.stats.CountCalls += len(workers)
		c.statsMu.Unlock()
		replies := make([]any, len(workers))
		errs := c.runPerWorker(workers, func(i, w int) error {
			reply := newReply()
			err := c.call(ctx, w, method, argsFor(groups[w]), reply)
			if err == nil {
				replies[i] = reply
			}
			return err
		})
		for i, w := range workers {
			if errs[i] != nil {
				continue
			}
			if err := merge(w, replies[i]); err != nil {
				return err
			}
			for _, id := range groups[w] {
				delete(pending, id)
			}
		}
		if err := c.handleRoundErrors(workers, errs); err != nil {
			return err
		}
	}
	return nil
}

// countMerged runs a counting scan through scatter and folds the flat
// reply buffers by elementwise addition into an int32 array of length n.
// Replies are wire data: one of the wrong length, or one whose counter
// would carry a sum past math.MaxInt32 (no store of at most math.MaxInt32
// transactions counts that high), fails the scan with an error naming the
// worker instead of wrapping.
func (c *Coordinator) countMerged(ctx context.Context, n int, method string, argsFor func(ids []int) any) ([]int32, error) {
	out := make([]int32, n)
	err := c.scatter(ctx, method, argsFor,
		func() any { return new(CountsReply) },
		func(w int, reply any) error {
			counts := reply.(*CountsReply).Counts
			if len(counts) != n {
				return fmt.Errorf("dist: worker %d: %s reply has %d counters, want %d",
					w, method, len(counts), n)
			}
			for i, v := range counts {
				if v < 0 || v > math.MaxInt32-out[i] {
					return fmt.Errorf("dist: worker %d: %s counter %d: %d added to %d leaves [0, math.MaxInt32]",
						w, method, i, v, out[i])
				}
				out[i] += v
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountItems runs the distributed pass-1 scan over the synced shards.
func (c *Coordinator) CountItems(ctx context.Context, numItems int) ([]int32, error) {
	return c.countMerged(ctx, numItems, MethodCountItems, func(ids []int) any {
		return &CountItemsArgs{ShardIDs: ids, NumItems: numItems}
	})
}

// CountPairs runs the distributed triangular pass-2 scan; rank maps item
// id to L1 rank (-1 for infrequent items) and n is the rank count.
func (c *Coordinator) CountPairs(ctx context.Context, rank []int, n int) ([]int32, error) {
	return c.countMerged(ctx, n*(n-1)/2, MethodCountPairs, func(ids []int) any {
		return &CountPairsArgs{ShardIDs: ids, Rank: rank, N: n}
	})
}

// CountCandidates runs a distributed pass-k (k >= 3) scan; the returned
// counts are indexed like cands, as every worker's reply is
// (transactions.CountTids counts candidate i into slot i).
func (c *Coordinator) CountCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int32, error) {
	return c.countMerged(ctx, len(cands), MethodCountCandidates, func(ids []int) any {
		return &CountCandidatesArgs{ShardIDs: ids, K: k, Candidates: cands}
	})
}

// BuildTree has every worker build an FP-tree over its shards and returns
// the imported trees as a forest, with no coordinator-side merge — mined
// together they give counts bit-identical to one local build, by the same
// commutativity the per-shard parallel builds rely on. A scan over no
// shards returns the empty forest.
func (c *Coordinator) BuildTree(ctx context.Context, r *fptree.Ranks) (fptree.Forest, error) {
	var trees []*fptree.Tree
	err := c.scatter(ctx, MethodBuildTree,
		func(ids []int) any { return &BuildTreeArgs{ShardIDs: ids, Ranks: r} },
		func() any { return new(TreeReply) },
		func(w int, reply any) error {
			t, err := fptree.Import(r, reply.(*TreeReply).Nodes)
			if err != nil {
				return err
			}
			trees = append(trees, t)
			return nil
		})
	if err != nil {
		return fptree.Forest{}, err
	}
	return fptree.NewForest(r, trees...), nil
}
