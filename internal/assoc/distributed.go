package assoc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Engine names Distributed dispatches between.
const (
	// DistEngineApriori runs the levelwise driver with every counting scan
	// fanned out over the workers (pass-1 arrays, triangular pass 2,
	// one counter per candidate for k >= 3); generation and thresholding are the
	// same code Apriori runs.
	DistEngineApriori = "Apriori"
	// DistEngineFPGrowth runs the growth driver with the two database
	// scans remote (one FP-tree per worker over its shards, imported by
	// the coordinator as a forest — never merged) and pattern growth local
	// over that forest.
	DistEngineFPGrowth = "FPGrowth"
)

// Distributed is the coordinator-side mining engine over internal/dist. It
// owns no mining loop: it ships database shards to workers and runs the
// same levelwise or growth driver Apriori and FPGrowth run, over a scan
// source (remoteScans) that sends each scan to the dist.Coordinator. The
// coordinator merges the returned buffers with the commutative integer
// adds the local scans use, so distributed results — levels and pass stats
// — are byte-identical to a local Apriori or FPGrowth run, a property the
// tests pin at workers 1, 2 and 4.
//
// Two shard sources exist. A plain Mine(db, minSupport) splits db into one
// contiguous shard per worker and ships them all (a fresh epoch per call,
// since a plain DB carries no version stamps). The incremental maintainer's
// full runs (Incremental.Remote) sync a transactions.ShardedDB instead
// (storeScans): its shards travel under their own version stamps, and only
// shards whose version changed since the last sync re-ship — the
// dirty-shard protocol carried across the transport.
type Distributed struct {
	// Transport carries shards and count requests. It is required: a nil
	// Transport is a programming error.
	Transport dist.Transport
	// Workers bounds the goroutines of everything that runs in this
	// process: pattern growth's projection fan-out and, once degraded, the
	// local scans. <= 1 means 1. It does not resize the Transport.
	Workers int
	// Engine selects the mining strategy: DistEngineApriori (the default
	// for "") or DistEngineFPGrowth. Both produce identical results.
	Engine string
	// Retry is the coordinator's fault policy (per-call deadline, retry
	// budget, backoff); the zero value means the documented defaults.
	// Applied at the start of every Mine, so it can be changed between
	// mines but not during one.
	Retry dist.RetryPolicy
	// NoLocalFallback disables graceful degradation: with it set, losing
	// every worker fails the mine with an error wrapping
	// dist.ErrNoHealthyWorkers instead of falling back to local scans.
	NoLocalFallback bool

	hook  PassHook
	coord *dist.Coordinator
	// store is the ShardedDB whose shards the workers hold, nil after a
	// plain Mine. Switching stores, or between a store and the plain path,
	// resets the coordinator: both use small-integer shard ids, and a
	// leftover version could otherwise collide with a new one and leave a
	// stale replica in place.
	store    *transactions.ShardedDB
	epoch    uint64
	degraded bool
}

// Name implements Miner.
func (d *Distributed) Name() string { return "Distributed" }

// SetWorkers implements Engine.
func (d *Distributed) SetWorkers(n int) { d.Workers = n }

// SetPassHook implements Engine. The Apriori strategy emits final
// levels per pass; the FPGrowth strategy emits them in one burst at the
// end, after the imported forest is mined (pass 1 carries a nil level).
func (d *Distributed) SetPassHook(h PassHook) { d.hook = h }

// Coordinator returns the engine's coordinator over Transport, creating
// it on first use — the handle tests and benchmarks use to read traffic
// stats.
func (d *Distributed) Coordinator() *dist.Coordinator {
	if d.coord == nil {
		d.coord = dist.NewCoordinator(d.Transport)
	}
	return d.coord
}

// Close releases the transport and its workers. The engine is not usable
// afterwards.
func (d *Distributed) Close() error { return d.Transport.Close() }

// sync ships db as one contiguous shard per worker, versioned by a fresh
// epoch per call because a plain DB carries no version stamps of its own,
// so stale replicas can never leak into the counts.
func (d *Distributed) sync(ctx context.Context, db *transactions.DB) error {
	c := d.Coordinator()
	c.Reset()
	d.store = nil
	d.epoch++
	shards := db.Shards(c.Transport().NumWorkers())
	payloads := make([]dist.ShardPayload, len(shards))
	for i, sh := range shards {
		payloads[i] = dist.ShardPayload{ID: i, Version: d.epoch, Txs: sh.Transactions}
	}
	return c.Sync(ctx, payloads)
}

// storeScans is the maintainer's way onto the cluster: it syncs store's
// version-stamped shards, so only the shards an Append or DeleteAt dirtied
// since the last sync re-ship, and returns the scan source of one full run
// over them. snap must be a current snapshot of store: once the cluster is
// lost, the run goes on over it with local scans, and every pass it emits
// from then on is Degraded, exactly as in MineContext.
func (d *Distributed) storeScans(ctx context.Context, store *transactions.ShardedDB, snap *transactions.DB) (*remoteScans, error) {
	c := d.Coordinator()
	c.SetRetry(d.Retry)
	d.degraded = false
	if d.store != store {
		c.Reset()
		d.store = store
	}
	payloads := make([]dist.ShardPayload, store.NumShards())
	for i := range payloads {
		view, version := store.ShardView(i)
		payloads[i] = dist.ShardPayload{ID: i, Version: version, Txs: view.Transactions}
	}
	src := &remoteScans{d: d, db: snap, numItems: store.NumItems()}
	if err := c.Sync(ctx, payloads); err != nil && !src.degrade(err) {
		return nil, err
	}
	return src, nil
}

// Mine implements Miner.
func (d *Distributed) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return d.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner: the coordinator's shard shipping
// and scan fan-outs all run under ctx, so cancellation unblocks mid-pass
// even while a worker call is in flight.
//
// When the whole cluster is lost (every call path has exhausted retries
// and failover, surfacing dist.ErrNoHealthyWorkers) and NoLocalFallback
// is unset, the mine degrades instead of failing: the scan that hit the
// loss and every later one run on the local scan source over db — the
// scans Apriori and FPGrowth run, sharded over Workers goroutines, so the
// result stays byte-identical — and every pass emitted from then on
// carries PassStat.Degraded. Degradation lasts for the rest of that mine;
// the next Mine tries the cluster again (and fails fast onto the local
// scans while the workers stay marked down — Coordinator.Revive clears
// them).
func (d *Distributed) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	// Validate the engine before sync: a bad name must not pay (or
	// pollute) a full shard-shipping round first.
	switch d.Engine {
	case "", DistEngineApriori, DistEngineFPGrowth:
	default:
		return nil, fmt.Errorf("assoc: unknown distributed engine %q", d.Engine)
	}
	d.degraded = false
	d.Coordinator().SetRetry(d.Retry)
	src := &remoteScans{d: d, db: db, numItems: db.NumItems()}
	if err := d.sync(ctx, db); err != nil && !src.degrade(err) {
		return nil, err
	}
	res := &Result{MinCount: minCount, NumTx: db.Len()}
	emit := func(stat PassStat, level []ItemsetCount) {
		stat.Degraded = d.degraded
		res.addPass(d.hook, stat, level)
	}
	if d.Engine == DistEngineFPGrowth {
		err = growth(ctx, src, minCount, d.Workers, res, emit)
	} else {
		err = levelwise(ctx, src, minCount, res, emit)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Degraded reports whether the last Mine fell back to local scans.
func (d *Distributed) Degraded() bool { return d.degraded }

// remoteScans is the cluster scanSource of one mine: every scan goes to
// the engine's coordinator over the shards sync shipped, until the cluster
// is lost — from then on local holds the local scan source over the same
// database and serves the rest of the mine.
type remoteScans struct {
	d        *Distributed
	db       *transactions.DB
	numItems int
	local    *localScans
}

// degrade reports whether err is total cluster loss that the engine may
// absorb, and if so switches the mine to local scans.
func (r *remoteScans) degrade(err error) bool {
	if r.d.NoLocalFallback || !errors.Is(err, dist.ErrNoHealthyWorkers) {
		return false
	}
	r.local = scanLocal(r.db, r.numItems, r.d.Workers)
	r.d.degraded = true
	return true
}

func (r *remoteScans) countItems(ctx context.Context) ([]int32, error) {
	if r.local == nil {
		counts, err := r.d.coord.CountItems(ctx, r.numItems)
		if !r.degrade(err) {
			return counts, err
		}
	}
	return r.local.countItems(ctx)
}

func (r *remoteScans) countPairs(ctx context.Context, rank []int, n int) ([]int32, error) {
	if r.local == nil {
		counts, err := r.d.coord.CountPairs(ctx, rank, n)
		if !r.degrade(err) {
			return counts, err
		}
	}
	return r.local.countPairs(ctx, rank, n)
}

func (r *remoteScans) countCandidates(ctx context.Context, k int, cands []transactions.Itemset) ([]int32, error) {
	if r.local == nil {
		counts, err := r.d.coord.CountCandidates(ctx, k, cands)
		if !r.degrade(err) {
			return counts, err
		}
	}
	return r.local.countCandidates(ctx, k, cands)
}

func (r *remoteScans) buildTree(ctx context.Context, ranks *fptree.Ranks) (fptree.Forest, error) {
	if r.local == nil {
		forest, err := r.d.coord.BuildTree(ctx, ranks)
		if !r.degrade(err) {
			return forest, err
		}
	}
	return r.local.buildTree(ctx, ranks)
}
