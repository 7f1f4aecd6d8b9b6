package dist

import (
	"fmt"
	"sync"

	"repro/internal/fptree"
	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// Worker is the counting side of the backend: it keeps version-stamped
// shard replicas and answers count requests by scanning them with the
// same per-transaction kernels the local scans call (transactions.CountItems
// and CountPairs, the hash tree's trimmed pass-k scan, fptree.Build),
// returning mergeable buffers. The method signatures follow net/rpc
// conventions so one implementation serves both transports.
//
// A worker is safe for concurrent calls (net/rpc may interleave them), but
// the coordinator's protocol never counts a shard while re-shipping it, so
// the lock only guards the replica map, not the scans.
type Worker struct {
	mu     sync.Mutex
	shards map[int]ShardPayload
}

// NewWorker returns a worker with no replicas. Every exported method is
// net/rpc-shaped; adding a non-RPC exported method would make rpc.Register
// log a complaint on every worker startup.
func NewWorker() *Worker {
	return &Worker{shards: make(map[int]ShardPayload)}
}

// Ship installs (or replaces) shard replicas.
func (w *Worker) Ship(args ShipArgs, reply *ShipReply) error {
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

// errReplySize refuses a count reply of n counters that no frame could
// carry (each counter takes at least one byte), before it is allocated.
func errReplySize(n int) error {
	return fmt.Errorf("dist: a reply of %d counters exceeds the %d-byte frame cap", n, maxFrame)
}

// CountItems runs the pass-1 scan over the requested replicas. The
// universe size and the replicas are wire input, so the reply must fit a
// frame and every item is checked against the universe before the kernel
// indexes with it.
func (w *Worker) CountItems(args CountItemsArgs, reply *CountsReply) error {
	if args.NumItems > maxFrame {
		return errReplySize(args.NumItems)
	}
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	counts := make([]int, args.NumItems)
	for _, sh := range shards {
		for _, tx := range sh.Txs {
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
func (w *Worker) CountPairs(args CountPairsArgs, reply *CountsReply) error {
	if args.N < 0 || args.N > len(args.Rank) {
		return fmt.Errorf("dist: pair scan over %d ranks with a rank table of %d items", args.N, len(args.Rank))
	}
	if n := args.N * (args.N - 1) / 2; n > maxFrame {
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
	counts := make([]int, args.N*(args.N-1)/2)
	ranks := make([]int, 0, 64)
	for _, sh := range shards {
		for _, tx := range sh.Txs {
			ranks = transactions.CountPairs(tx, args.Rank, args.N, counts, ranks)
		}
	}
	reply.Counts = counts
	return nil
}

// CountCandidates builds the request's candidate hash tree with
// hashtree.Build — the constructor the local scans use, whose entry ids
// are candidate indices and whose shape no request chooses — and counts
// the replicas into one private buffer with the shared trimmed scan
// (hashtree.CountAllInto). Scan offsets serve as dedup tids; they only
// need to be distinct within this one scan.
func (w *Worker) CountCandidates(args CountCandidatesArgs, reply *CountsReply) error {
	shards, err := w.replicas(args.ShardIDs)
	if err != nil {
		return err
	}
	tree, err := hashtree.Build(args.K, args.Candidates)
	if err != nil {
		return err
	}
	buf := tree.NewCountBuffer()
	tid := 0
	for _, sh := range shards {
		tree.CountAllInto(sh.Txs, tid, buf)
		tid += len(sh.Txs)
	}
	reply.Counts = buf.Counts
	return nil
}

// BuildTree builds one FP-tree over the requested replicas under the
// shared rank table and returns its exported node pool. Building all
// shards into one tree equals building per shard and merging — the
// package's commutative-add contract. The rank table is wire input and is
// checked (checkRanks) before fptree.Build indexes with it.
func (w *Worker) BuildTree(args BuildTreeArgs, reply *TreeReply) error {
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
	if len(shards) == 1 {
		txs = shards[0].Txs
	} else {
		for _, sh := range shards {
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
