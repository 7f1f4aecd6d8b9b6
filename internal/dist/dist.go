// Package dist is the distributed counting backend — the remote
// implementation of the four scans a mine needs. A Coordinator ships
// transactions.ShardedDB shard snapshots to workers over a pluggable
// Transport and exposes exactly those scans (CountItems, CountPairs,
// CountCandidates, BuildTree); workers answer them by running the same
// per-transaction kernels the local scans run (transactions.CountItems
// and CountPairs, transactions.CountTids for candidate lengths >= 3,
// FP-tree builds) over their replicas and return serialized mergeable
// buffers; and the coordinator folds the buffers together with the same
// commutative integer adds the parallel and incremental engines use
// locally. The package holds no mining loop: internal/assoc's drivers call
// the coordinator through their scan-source seam.
//
// The transport/merge contract, stated once:
//
//   - Shards tile the database: every live transaction belongs to exactly
//     one shipped shard, so summed per-shard counts are exact supports.
//   - Every reply is a mergeable buffer — a flat integer array (or an
//     fptree node pool) whose merge is elementwise addition (or path-wise
//     tree merge), both commutative and associative. Worker count, shard
//     placement and merge order therefore cannot change a single count,
//     and distributed results are byte-identical to local runs.
//   - Shards are version-stamped. A worker keeps its replica until the
//     coordinator ships a newer version, and the coordinator re-ships only
//     shards whose version changed — the dirty-shard maintenance protocol
//     of the incremental engine, carried across the network boundary.
//
// Workers are reached through the Transport interface. The one transport
// provided, LocalTransport, runs them as in-process goroutines fed by
// channels; in its encode mode, the one every program uses, each message
// is encoded with the wire codec (wire.go: varint integer blocks and the
// transactions package's stable encoding for shard rows and candidates)
// and decoded into fresh values, so no memory crosses the boundary and the
// serialization cost is real. FaultTransport wraps any Transport to inject
// faults. internal/assoc's Distributed miner is the engine built on top of
// this package: it syncs the shards and hands the coordinator to the
// level-wise or pattern-growth driver.
//
// Every call carries the caller's ctx to the worker, and the worker polls
// it: CountItems and CountPairs every ctxStride rows, CountCandidates
// every ctxStride rows while it sizes the item universe and then before
// every CountTids block and every 4096 candidates within one, and
// BuildTree before each replica (fptree.Build itself does not poll). A
// call the coordinator abandons — the caller cancelled, or the attempt
// ran past RetryPolicy.CallTimeout — therefore stops counting promptly,
// and the worker, which serves its calls one at a time, is free for the
// retry instead of finishing the abandoned scan first.
//
// # Fault model
//
// Workers are fail-stop with omission faults: a call may be slow, may
// never be answered, or may fail with a connection-level error, and a
// worker may die and stay dead. Transports surface those conditions as
// errors wrapping ErrWorkerUnavailable; the coordinator adds per-call
// deadlines (errors wrapping ErrCallTimeout) and retries both with capped
// exponential backoff and deterministic seeded jitter, per RetryPolicy.
// When a worker exhausts its retries the coordinator marks it down and
// fails its replicas over: every shard placed on it is re-assigned
// round-robin across the surviving workers and re-shipped from the
// retained payloads through the same versioned Sync machinery. When no
// healthy worker remains, calls fail with errors wrapping
// ErrNoHealthyWorkers (the Distributed engine reacts by running the rest
// of the mine on its local scans rather than failing it).
//
// The invariant all of this preserves is byte-identity under faults:
// a shard's buffer is merged exactly once per scan no matter how many
// attempts or placements it took to obtain, and merging is commutative
// addition, so any mine that completes — through retries, failovers, or
// none — returns exactly the bytes a local run returns, and any mine
// that cannot complete returns a wrapped sentinel, never a partial
// merge. FaultTransport (a deterministic, seeded fault-injecting
// Transport wrapper) exists to test exactly this.
package dist

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// Errors returned by the package.
var (
	// ErrNoShard reports a count request for a shard id the worker holds no
	// replica of — the coordinator's Sync and the request disagree.
	ErrNoShard = errors.New("dist: worker holds no replica of requested shard")
	// ErrBadMethod reports an unknown transport method name.
	ErrBadMethod = errors.New("dist: unknown transport method")
	// ErrClosed reports a call through a closed transport.
	ErrClosed = errors.New("dist: transport is closed")
	// ErrNoSuchWorker reports a call to a worker index the transport does
	// not reach.
	ErrNoSuchWorker = errors.New("dist: worker index out of range")
	// ErrNoWorkers reports a transport with no workers to place shards on.
	ErrNoWorkers = errors.New("dist: transport has no workers")
	// ErrWorkerUnavailable reports a connection-level failure talking to a
	// worker — the retryable class of transport errors. Transports wrap it
	// (%w) around the underlying cause.
	ErrWorkerUnavailable = errors.New("dist: worker unavailable")
	// ErrCallTimeout reports a call that exceeded the coordinator's
	// per-call deadline (RetryPolicy.CallTimeout). Retryable.
	ErrCallTimeout = errors.New("dist: call deadline exceeded")
	// ErrNoHealthyWorkers reports that every worker has been marked down;
	// the coordinator cannot place or scan shards until Revive.
	ErrNoHealthyWorkers = errors.New("dist: no healthy workers")
)

// Transport method names, the vocabulary every Transport must route to
// the Worker method of the same name.
const (
	MethodShip            = "Ship"
	MethodCountItems      = "CountItems"
	MethodCountPairs      = "CountPairs"
	MethodCountCandidates = "CountCandidates"
	MethodBuildTree       = "BuildTree"
)

// ShardPayload is one shard snapshot on the wire: the shard's id, its
// version stamp at shipping time, and its live transactions.
type ShardPayload struct {
	ID      int
	Version uint64
	Txs     []transactions.Itemset
}

// ShipArgs delivers shard replicas to a worker; newer versions replace
// older replicas of the same id.
type ShipArgs struct {
	Shards []ShardPayload
}

// ShipReply acknowledges a Ship.
type ShipReply struct{}

// CountItemsArgs requests the pass-1 scan: per-item transaction-occurrence
// counts over the listed shard replicas, into a flat array of NumItems.
type CountItemsArgs struct {
	ShardIDs []int
	NumItems int
}

// CountsReply carries one worker's merged flat count buffer; the
// coordinator folds replies together by elementwise addition. Counters are
// int32, the scans' own width; on the wire they are uvarints bounded to
// math.MaxInt32.
type CountsReply struct {
	Counts []int32
}

// CountPairsArgs requests the pass-2 scan: the triangular pair array over
// L1 ranks. Rank maps item id to rank (-1 marks infrequent items) and N is
// the rank count, so the reply has N*(N-1)/2 counters.
type CountPairsArgs struct {
	ShardIDs []int
	Rank     []int
	N        int
}

// CountCandidatesArgs requests a pass-k (k >= 3) scan: the worker counts
// the listed shards into one counter per candidate with the tid-bitset
// block kernel (transactions.CountTids), so the reply is indexed like
// Candidates. The kernel's scratch is sized from the candidates and the
// worker's replicas, never from a field of the request.
type CountCandidatesArgs struct {
	ShardIDs   []int
	K          int
	Candidates []transactions.Itemset
}

// BuildTreeArgs requests a pattern-growth build: one FP-tree over the
// listed shards under the shared rank table, returned as an exported node
// pool for the coordinator to import and merge.
type BuildTreeArgs struct {
	ShardIDs []int
	Ranks    *fptree.Ranks
}

// TreeReply carries one worker's serialized FP-tree.
type TreeReply struct {
	Nodes []fptree.EncodedNode
}

// Transport carries coordinator requests to workers. Call invokes a
// Method* on worker w (args is a pointer to the method's args type, reply
// a pointer to its reply type) and blocks until the reply is filled or ctx
// is done, whichever comes first. ctx travels with the request, and the
// worker's scans poll it, so an abandoned call stops counting within one
// poll and the worker's next call does not queue behind it. A reply
// passed to a failed Call may still be written by the abandoned request:
// callers never read or reuse it, and every attempt gets a fresh reply
// (Coordinator.call makes one per attempt). Calls to distinct workers may
// run concurrently; the coordinator never issues concurrent calls to one
// worker.
type Transport interface {
	// NumWorkers returns how many workers the transport reaches.
	NumWorkers() int
	// Call invokes method on worker w, honouring ctx cancellation.
	Call(ctx context.Context, w int, method string, args, reply any) error
	// Close releases the transport; subsequent calls fail with ErrClosed.
	Close() error
}

// dispatch routes one decoded call to the worker's typed methods, under
// the caller's ctx.
func dispatch(ctx context.Context, w *Worker, method string, args, reply any) error {
	switch method {
	case MethodShip:
		return w.Ship(ctx, *args.(*ShipArgs), reply.(*ShipReply))
	case MethodCountItems:
		return w.CountItems(ctx, *args.(*CountItemsArgs), reply.(*CountsReply))
	case MethodCountPairs:
		return w.CountPairs(ctx, *args.(*CountPairsArgs), reply.(*CountsReply))
	case MethodCountCandidates:
		return w.CountCandidates(ctx, *args.(*CountCandidatesArgs), reply.(*CountsReply))
	case MethodBuildTree:
		return w.BuildTree(ctx, *args.(*BuildTreeArgs), reply.(*TreeReply))
	default:
		return fmt.Errorf("%w: %q", ErrBadMethod, method)
	}
}

// message returns fresh zero-valued args and reply instances for a method,
// the decode targets of LocalTransport's encode mode.
func message(method string) (args, reply any, err error) {
	switch method {
	case MethodShip:
		return new(ShipArgs), new(ShipReply), nil
	case MethodCountItems:
		return new(CountItemsArgs), new(CountsReply), nil
	case MethodCountPairs:
		return new(CountPairsArgs), new(CountsReply), nil
	case MethodCountCandidates:
		return new(CountCandidatesArgs), new(CountsReply), nil
	case MethodBuildTree:
		return new(BuildTreeArgs), new(TreeReply), nil
	default:
		return nil, nil, fmt.Errorf("%w: %q", ErrBadMethod, method)
	}
}
