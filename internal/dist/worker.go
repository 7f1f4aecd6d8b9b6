package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Worker is the counting side of the backend: it keeps version-stamped
// shard replicas and answers count requests by scanning them with the
// same kernels the local scans call (transactions.CountItems, CountPairs
// and the pass-k tid-bitset count CountTids, fptree.Build),
// returning mergeable buffers. Transports reach the methods through
// dispatch, by the Method* names, passing the caller's ctx: every method
// returns ctx.Err() with the reply unset once it sees ctx done, and the
// scans poll it as they go (see the package doc for the cadence).
//
// A worker is safe for concurrent calls, but the coordinator's protocol
// never counts a shard while re-shipping it, so the lock only guards the
// replica map, not the scans.
type Worker struct {
	mu     sync.Mutex
	shards map[int]ShardPayload
}

// NewWorker returns a worker with no replicas.
func NewWorker() *Worker {
	return &Worker{shards: make(map[int]ShardPayload)}
}

// ctxStride is how many rows the pass-1 and pass-2 scans count between
// context polls, the stride of the local scans.
const ctxStride = 1024

// Ship installs (or replaces) shard replicas.
func (w *Worker) Ship(ctx context.Context, args ShipArgs, reply *ShipReply) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, sh := range args.Shards {
		w.shards[sh.ID] = sh
	}
	return nil
}

// replicas resolves the requested shard ids under the lock, so scans run
// on a consistent snapshot of the replica map.
func (w *Worker) replicas(ids []int) ([]ShardPayload, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ShardPayload, 0, len(ids))
	for _, id := range ids {
		sh, ok := w.shards[id]
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoShard, id)
		}
		out = append(out, sh)
	}
	return out, nil
}

// maxCounters caps what a count request may make a worker allocate: the
// counters of one reply (a pass-1 universe, a pass-2 triangle), and so
// also the replica item ids a pass-k count accepts, since its rank table
// runs to the largest of them. Requests and replicas are wire input, so
// without the cap one message could ask for any amount of memory.
const maxCounters = 1 << 30

// errReplySize refuses a count reply of n counters past maxCounters,
// before it is allocated.
func errReplySize(n int) error {
	return fmt.Errorf("dist: a reply of %d counters exceeds the %d-counter cap", n, maxCounters)
}

// CountItems runs the pass-1 scan over the requested replicas. The
// universe size and the replicas are wire input, so the reply must fit
// maxCounters and every item is checked against the universe before the
// kernel indexes with it.
func (w *Worker) CountItems(ctx context.Context, args CountItemsArgs, reply *CountsReply) error {
	if args.NumItems > maxCounters {
		return errReplySize(args.NumItems)
	}
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	counts := make([]int32, args.NumItems)
	for _, sh := range shards {
		for off, tx := range sh.Txs {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			for _, item := range tx {
				if item < 0 || item >= args.NumItems {
					return fmt.Errorf("dist: shard %d: item %d outside universe %d", sh.ID, item, args.NumItems)
				}
			}
			transactions.CountItems(tx, counts)
		}
	}
	reply.Counts = counts
	return nil
}

// CountPairs runs the triangular pass-2 scan over the requested replicas.
// N and the rank table are wire input and are checked before the triangle
// is allocated or indexed: N must not exceed the table (N ranked items need
// N entries), the triangle must fit a reply, and the ranks must lie in
// [-1, N) and ascend with item id, which is what lets
// transactions.CountPairs index the triangle unchecked.
func (w *Worker) CountPairs(ctx context.Context, args CountPairsArgs, reply *CountsReply) error {
	if args.N < 0 || args.N > len(args.Rank) {
		return fmt.Errorf("dist: pair scan over %d ranks with a rank table of %d items", args.N, len(args.Rank))
	}
	if n := args.N * (args.N - 1) / 2; n > maxCounters {
		return errReplySize(n)
	}
	prev := -1
	for item, r := range args.Rank {
		if r < -1 || r >= args.N {
			return fmt.Errorf("dist: item %d has rank %d outside [-1, %d)", item, r, args.N)
		}
		if r >= 0 {
			if r <= prev {
				return fmt.Errorf("dist: item %d has rank %d after rank %d: ranks must ascend with item id", item, r, prev)
			}
			prev = r
		}
	}
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	counts := make([]int32, args.N*(args.N-1)/2)
	base := transactions.TriBases(args.N)
	ranks := make([]int, 0, 64)
	for _, sh := range shards {
		for off, tx := range sh.Txs {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			ranks = transactions.CountPairs(tx, args.Rank, base, 0, args.N, counts, ranks)
		}
	}
	reply.Counts = counts
	return nil
}

// Errors of a pass-k request whose candidates are not one pass's C_k.
var (
	errCandidateK      = errors.New("dist: candidate length K must be positive")
	errCandidateLength = errors.New("dist: candidate length does not match K")
)

// CountCandidates counts the request's candidates over the requested
// replicas with the pass-k kernel the local scans use
// (transactions.CountTids), so the reply is indexed like Candidates. K and
// the candidates are wire input: K below 1, or a candidate of another
// length, is an error. The item universe is the replicas' own, one past
// their largest item, so a candidate naming an item beyond it counts 0.
// The replicas are wire input too, and the kernel's rank table runs to the
// largest candidate item inside that universe, so a replica item at or
// past maxCounters — a universe CountItems refuses as well — is an error
// before any table exists.
func (w *Worker) CountCandidates(ctx context.Context, args CountCandidatesArgs, reply *CountsReply) error {
	if args.K < 1 {
		return errCandidateK
	}
	for _, c := range args.Candidates {
		if len(c) != args.K {
			return fmt.Errorf("%w: %d items, K = %d", errCandidateLength, len(c), args.K)
		}
	}
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	numItems := 0
	for _, sh := range shards {
		for off, tx := range sh.Txs {
			if off%ctxStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if len(tx) == 0 {
				continue
			}
			last := tx[len(tx)-1]
			if last >= maxCounters {
				return fmt.Errorf("dist: shard %d: item %d outside the %d-item universe a worker counts", sh.ID, last, maxCounters)
			}
			numItems = max(numItems, last+1)
		}
	}
	c, err := transactions.NewCandidates(args.Candidates, numItems)
	if err != nil {
		return err
	}
	counts := make([]int32, c.Len())
	for _, sh := range shards {
		if err := transactions.CountTids(ctx, c, sh.Txs, counts); err != nil {
			return err
		}
	}
	reply.Counts = counts
	return nil
}

// BuildTree builds one FP-tree over the requested replicas under the
// shared rank table and returns its exported node pool. Building all
// shards into one tree equals building per shard and merging — the
// package's commutative-add contract. The rank table is wire input and is
// checked (checkRanks) before fptree.Build indexes with it. ctx is polled
// before each replica joins the run; the build itself does not poll.
func (w *Worker) BuildTree(ctx context.Context, args BuildTreeArgs, reply *TreeReply) error {
	if err := checkRanks(args.Ranks); err != nil {
		return err
	}
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	// fptree.Build takes one run; several replicas are joined by their
	// itemset headers (the items themselves are not copied).
	var txs []transactions.Itemset
	for _, sh := range shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(shards) == 1 {
			txs = sh.Txs
		} else {
			txs = append(txs, sh.Txs...)
		}
	}
	reply.Nodes = fptree.Build(txs, args.Ranks).Export()
	return nil
}

// checkRanks validates a rank table off the wire the way CountPairs
// validates its ranks: every OfItem value lies in [-1, len(Items)), Items
// and OfItem are mutual inverses, and there is one count per rank —
// fptree.Build indexes its per-rank arrays with OfItem's values unchecked.
// Each ranked item naming itself through Items makes OfItem one-to-one on
// them, so the inverse holds once they number exactly len(Items).
func checkRanks(r *fptree.Ranks) error {
	if r == nil {
		return fmt.Errorf("dist: tree build without a rank table")
	}
	ranked := 0
	for item, rk := range r.OfItem {
		if rk < -1 || int(rk) >= len(r.Items) || (rk >= 0 && int(r.Items[rk]) != item) {
			return fmt.Errorf("dist: item %d has rank %d, which a table of %d ranks does not give it", item, rk, len(r.Items))
		}
		if rk >= 0 {
			ranked++
		}
	}
	if ranked != len(r.Items) || len(r.Counts) != len(r.Items) {
		return fmt.Errorf("dist: %d ranked items and %d counts for a table of %d ranks", ranked, len(r.Counts), len(r.Items))
	}
	return nil
}
