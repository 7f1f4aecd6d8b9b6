// Package dist is the distributed counting backend — the remote
// implementation of the four scans a mine needs. A Coordinator ships
// transactions.ShardedDB shard snapshots to workers over a pluggable
// Transport and exposes exactly those scans (CountItems, CountPairs,
// CountCandidates, BuildTree); workers answer them by running the same
// per-transaction kernels the local scans run (transactions.CountItems
// and CountPairs, hash-tree count buffers for candidate lengths >= 3,
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
// Two transports are provided: LocalTransport runs workers as in-process
// goroutines fed by channels (tests and single-binary use; optionally
// encoding and decoding every message so serialization cost is real), and
// RPCTransport carries the same bytes in length-prefixed frames to remote
// worker processes (ServeWorker is the listening side). The byte format
// (wire.go) is one codec for both: varint integer blocks and the
// transactions package's stable encoding for shard rows and candidates.
// internal/assoc's Distributed miner is the engine built on top of this
// package: it syncs the shards and hands the coordinator to the level-wise
// or pattern-growth driver.
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
	"reflect"

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

// Transport method names, the vocabulary every Transport must route. They
// double as the net/rpc method names under the "Worker" service.
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
// coordinator folds replies together by elementwise addition.
type CountsReply struct {
	Counts []int
}

// CountPairsArgs requests the pass-2 scan: the triangular pair array over
// L1 ranks. Rank maps item id to rank (-1 marks infrequent items) and N is
// the rank count, so the reply has N*(N-1)/2 counters.
type CountPairsArgs struct {
	ShardIDs []int
	Rank     []int
	N        int
}

// CountCandidatesArgs requests a pass-k (k >= 3) scan: the worker builds
// the candidate hash tree with hashtree.Build, which sizes the tree from
// the candidates alone and numbers the entries in candidate order, and
// counts the listed shards into one buffer — so the reply is indexed like
// Candidates and no request can choose the tree's shape. Dedup tids are
// request-local scan offsets — distinct per transaction, which is all the
// hash tree's double-count guard needs.
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
// Method* on worker w (args and reply follow net/rpc conventions: args may
// be a value or pointer, reply must be a pointer) and blocks until the
// reply is filled or ctx is done, whichever comes first — an abandoned
// in-flight request is discarded when its reply eventually arrives, so
// cancellation never corrupts a later call's reply. Calls to distinct
// workers may run concurrently; the coordinator never issues concurrent
// calls to one worker.
type Transport interface {
	// NumWorkers returns how many workers the transport reaches.
	NumWorkers() int
	// Call invokes method on worker w, honouring ctx cancellation.
	Call(ctx context.Context, w int, method string, args, reply any) error
	// Close releases the transport; subsequent calls fail with ErrClosed.
	Close() error
}

// dispatch routes one decoded call to the worker's typed methods. It is
// shared by LocalTransport (directly) and ServeWorker (net/rpc routes by
// method name instead, but the names match by construction).
func dispatch(w *Worker, method string, args, reply any) error {
	switch method {
	case MethodShip:
		return w.Ship(*args.(*ShipArgs), reply.(*ShipReply))
	case MethodCountItems:
		return w.CountItems(*args.(*CountItemsArgs), reply.(*CountsReply))
	case MethodCountPairs:
		return w.CountPairs(*args.(*CountPairsArgs), reply.(*CountsReply))
	case MethodCountCandidates:
		return w.CountCandidates(*args.(*CountCandidatesArgs), reply.(*CountsReply))
	case MethodBuildTree:
		return w.BuildTree(*args.(*BuildTreeArgs), reply.(*TreeReply))
	default:
		return fmt.Errorf("%w: %q", ErrBadMethod, method)
	}
}

// freshReplyLike returns a new zero value of reply's pointed-to type. The
// transports fill a fresh reply per request and copy it to the caller's
// only on success, so a request abandoned on cancellation or timeout can
// complete late without scribbling over a reply object the caller has
// already moved on from (e.g. the retry loop's next attempt).
func freshReplyLike(reply any) any {
	return reflect.New(reflect.TypeOf(reply).Elem()).Interface()
}

// copyReply shallow-copies *src into *dst (both pointers to the same
// struct type) — the success leg of the fresh-reply protocol.
func copyReply(dst, src any) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
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
