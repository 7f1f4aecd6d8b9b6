package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// The wire format. Every message is a sequence of canonical uvarints
// (transactions.Uvarint) and stable transaction blocks
// (transactions.AppendStable), so a message has exactly one byte string:
//
//	int         uvarint; negative values have no wire form
//	int block   uvarint length, then one uvarint per value. Blocks whose
//	            values may be -1 (rank tables) carry value+1.
//	stable      uvarint byte length, then that many bytes holding exactly
//	            one transactions stable block — shard rows and candidate
//	            lists, both lists of sorted duplicate-free itemsets. The
//	            length lets the decoder size a block's item arena from the
//	            block alone, whatever follows it in the message.
//
//	ShipArgs             int shard count, then per shard: int id,
//	                     uvarint version, stable rows
//	ShipReply            empty
//	CountItemsArgs       int block shard ids, int universe size
//	CountPairsArgs       int block shard ids, int N, int block rank+1
//	CountCandidatesArgs  int block shard ids, int K, stable candidates
//	BuildTreeArgs        int block shard ids, then the rank table as int
//	                     blocks: item->rank+1, rank->item, rank->count
//	CountsReply          int block counts, each at most math.MaxInt32
//	TreeReply            int node count, then per node: int rank,
//	                     int parent, int count; all three at most
//	                     math.MaxInt32
//
// LocalTransport's encode mode moves exactly these bytes. Decoders bound
// every declared length by the bytes that remain before allocating, reject
// trailing bytes, and report every failure as ErrBadFrame.

// ErrBadFrame reports wire bytes that are not a well-formed message —
// truncated, oversized, non-canonical, or followed by trailing bytes — and, on the encode side, a value the format cannot carry (a
// negative id or count, or a node count past math.MaxInt32). It is
// deterministic, so Retryable reports false.
var ErrBadFrame = errors.New("dist: malformed wire message")

// wireWriter appends fields to b; the first value without a wire form
// latches err and turns later appends into no-ops.
type wireWriter struct {
	b   []byte
	err error
}

// fail latches the first encode error.
func (w *wireWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: encoding %s", ErrBadFrame, fmt.Sprintf(format, args...))
	}
}

// int appends one non-negative int.
func (w *wireWriter) int(v int) {
	if v < 0 {
		w.fail("negative value %d", v)
		return
	}
	w.b = binary.AppendUvarint(w.b, uint64(v))
}

// stable appends one length-prefixed stable transaction block. The length
// is known only once the block is encoded, so the block is appended first
// and moved up by the width of its prefix: one memmove, against a second
// pass over every item to size it in advance.
func (w *wireWriter) stable(txs []transactions.Itemset) {
	if w.err != nil {
		return
	}
	start := len(w.b)
	b, err := transactions.AppendStable(w.b, txs)
	if err != nil {
		w.fail("%v", err)
		return
	}
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(len(b)-start))
	b = append(b, head[:n]...)
	copy(b[start+n:], b[start:len(b)-n])
	copy(b[start:], head[:n])
	w.b = b
}

// appendInts appends an int block whose values are all >= -bias.
func appendInts[T int | int32](w *wireWriter, vs []T, bias T) {
	w.int(len(vs))
	w.b = slices.Grow(w.b, len(vs))
	for _, v := range vs {
		if v < -bias {
			w.fail("value %d below %d", v, -bias)
			return
		}
		// Widen before adding the bias: the largest value of T plus one
		// still has a wire form.
		w.b = binary.AppendUvarint(w.b, uint64(v)+uint64(bias))
	}
}

// wireReader consumes fields off the front of b; the first malformed
// field latches err, after which every read returns zero values.
type wireReader struct {
	b   []byte
	err error
}

// fail latches the first decode error.
func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
	}
}

// uvarint reads one canonical uvarint no larger than limit.
func (r *wireReader) uvarint(limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := transactions.Uvarint(r.b)
	if !ok {
		r.fail("truncated or non-canonical varint")
		return 0
	}
	if v > limit {
		r.fail("value %d above %d", v, limit)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads one non-negative int.
func (r *wireReader) int() int { return int(r.uvarint(math.MaxInt)) }

// length reads an element count and bounds it by the bytes that remain,
// every element costing at least width bytes — the check that keeps a
// decoder's allocations within a small multiple of its input.
func (r *wireReader) length(width int) int {
	n := r.uvarint(math.MaxInt)
	if n > uint64(len(r.b)/width) {
		r.fail("%d elements declared in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *wireReader) bytes() []byte {
	n := r.length(1)
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// stable reads one length-prefixed stable transaction block. The decoder
// sees the block's own bytes and nothing after them, so what it allocates
// is bounded by the block, not by the rest of the message.
func (r *wireReader) stable() []transactions.Itemset {
	block := r.bytes()
	if r.err != nil {
		return nil
	}
	txs, rest, err := transactions.DecodeStableBytes(block)
	if err != nil {
		r.err = fmt.Errorf("%w: %w", ErrBadFrame, err)
		return nil
	}
	if len(rest) != 0 {
		r.fail("%d bytes after a stable block", len(rest))
		return nil
	}
	return txs
}

// done returns the latched error, or ErrBadFrame for trailing bytes.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// readInts reads an int block written by appendInts with the same bias;
// top is T's largest value.
func readInts[T int | int32](r *wireReader, bias T, top uint64) []T {
	vs := make([]T, r.length(1))
	// The count arrays of a pass-2 reply run to hundreds of thousands of
	// elements, so the loop reads through a local slice, not the latch.
	b, limit := r.b, top+uint64(bias)
	for i := range vs {
		// Most counters are one byte; reading those here keeps the call
		// out of the loop.
		v, n, ok := uint64(0), 1, len(b) > 0 && b[0] < 0x80
		if ok {
			v = uint64(b[0])
		} else {
			v, n, ok = transactions.Uvarint(b)
		}
		if !ok || v > limit {
			r.fail("int block element %d of %d", i, len(vs))
			return nil
		}
		b = b[n:]
		vs[i] = T(v - uint64(bias))
	}
	r.b = b
	return vs
}

func appendShipArgs(dst []byte, a *ShipArgs) ([]byte, error) {
	w := wireWriter{b: dst}
	w.int(len(a.Shards))
	for _, sh := range a.Shards {
		w.int(sh.ID)
		w.b = binary.AppendUvarint(w.b, sh.Version)
		w.stable(sh.Txs)
	}
	return w.b, w.err
}

func decodeShipArgs(b []byte, a *ShipArgs) error {
	r := wireReader{b: b}
	// A shard is at least an id, a version, a block length and an empty
	// block's two bytes.
	a.Shards = make([]ShardPayload, r.length(5))
	for i := range a.Shards {
		a.Shards[i] = ShardPayload{ID: r.int(), Version: r.uvarint(^uint64(0)), Txs: r.stable()}
	}
	return r.done()
}

func appendShipReply(dst []byte, _ *ShipReply) ([]byte, error) { return dst, nil }

func decodeShipReply(b []byte, _ *ShipReply) error {
	r := wireReader{b: b}
	return r.done()
}

func appendCountItemsArgs(dst []byte, a *CountItemsArgs) ([]byte, error) {
	w := wireWriter{b: dst}
	appendInts(&w, a.ShardIDs, 0)
	w.int(a.NumItems)
	return w.b, w.err
}

func decodeCountItemsArgs(b []byte, a *CountItemsArgs) error {
	r := wireReader{b: b}
	a.ShardIDs = readInts[int](&r, 0, math.MaxInt)
	a.NumItems = r.int()
	return r.done()
}

func appendCountPairsArgs(dst []byte, a *CountPairsArgs) ([]byte, error) {
	w := wireWriter{b: dst}
	appendInts(&w, a.ShardIDs, 0)
	w.int(a.N)
	appendInts(&w, a.Rank, 1)
	return w.b, w.err
}

func decodeCountPairsArgs(b []byte, a *CountPairsArgs) error {
	r := wireReader{b: b}
	a.ShardIDs = readInts[int](&r, 0, math.MaxInt)
	a.N = r.int()
	a.Rank = readInts[int](&r, 1, math.MaxInt)
	return r.done()
}

func appendCountCandidatesArgs(dst []byte, a *CountCandidatesArgs) ([]byte, error) {
	w := wireWriter{b: dst}
	appendInts(&w, a.ShardIDs, 0)
	w.int(a.K)
	w.stable(a.Candidates)
	return w.b, w.err
}

func decodeCountCandidatesArgs(b []byte, a *CountCandidatesArgs) error {
	r := wireReader{b: b}
	a.ShardIDs = readInts[int](&r, 0, math.MaxInt)
	a.K = r.int()
	a.Candidates = r.stable()
	return r.done()
}

func appendBuildTreeArgs(dst []byte, a *BuildTreeArgs) ([]byte, error) {
	w := wireWriter{b: dst}
	appendInts(&w, a.ShardIDs, 0)
	if a.Ranks == nil {
		w.fail("BuildTreeArgs without a rank table")
		return w.b, w.err
	}
	appendInts(&w, a.Ranks.OfItem, 1)
	appendInts(&w, a.Ranks.Items, 0)
	appendInts(&w, a.Ranks.Counts, 0)
	return w.b, w.err
}

func decodeBuildTreeArgs(b []byte, a *BuildTreeArgs) error {
	r := wireReader{b: b}
	a.ShardIDs = readInts[int](&r, 0, math.MaxInt)
	a.Ranks = &fptree.Ranks{
		OfItem: readInts[int32](&r, 1, math.MaxInt32),
		Items:  readInts[int32](&r, 0, math.MaxInt32),
		Counts: readInts[int](&r, 0, math.MaxInt),
	}
	return r.done()
}

func appendCountsReply(dst []byte, a *CountsReply) ([]byte, error) {
	w := wireWriter{b: dst}
	appendInts(&w, a.Counts, 0)
	return w.b, w.err
}

func decodeCountsReply(b []byte, a *CountsReply) error {
	r := wireReader{b: b}
	a.Counts = readInts[int32](&r, 0, math.MaxInt32)
	return r.done()
}

func appendTreeReply(dst []byte, a *TreeReply) ([]byte, error) {
	w := wireWriter{b: dst}
	w.int(len(a.Nodes))
	w.b = slices.Grow(w.b, 3*len(a.Nodes))
	for _, n := range a.Nodes {
		w.int(int(n.Rank))
		w.int(int(n.Parent))
		if n.Count > math.MaxInt32 {
			w.fail("node count %d above %d", n.Count, math.MaxInt32)
		}
		w.int(n.Count)
	}
	return w.b, w.err
}

func decodeTreeReply(b []byte, a *TreeReply) error {
	r := wireReader{b: b}
	a.Nodes = make([]fptree.EncodedNode, r.length(3))
	for i := range a.Nodes {
		a.Nodes[i] = fptree.EncodedNode{
			Rank:   int32(r.uvarint(math.MaxInt32)),
			Parent: int32(r.uvarint(math.MaxInt32)),
			Count:  int(r.uvarint(math.MaxInt32)),
		}
	}
	return r.done()
}

// appendMessage appends the wire form of msg, a pointer to any of the
// eight message types — the one encode entry point.
func appendMessage(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *ShipArgs:
		return appendShipArgs(dst, m)
	case *ShipReply:
		return appendShipReply(dst, m)
	case *CountItemsArgs:
		return appendCountItemsArgs(dst, m)
	case *CountPairsArgs:
		return appendCountPairsArgs(dst, m)
	case *CountCandidatesArgs:
		return appendCountCandidatesArgs(dst, m)
	case *BuildTreeArgs:
		return appendBuildTreeArgs(dst, m)
	case *CountsReply:
		return appendCountsReply(dst, m)
	case *TreeReply:
		return appendTreeReply(dst, m)
	default:
		return dst, fmt.Errorf("%w: no wire form for %T", ErrBadFrame, msg)
	}
}

// decodeMessage decodes b, which must hold exactly one message, into msg,
// a pointer to any of the eight message types. On error *msg is
// unspecified.
func decodeMessage(b []byte, msg any) error {
	switch m := msg.(type) {
	case *ShipArgs:
		return decodeShipArgs(b, m)
	case *ShipReply:
		return decodeShipReply(b, m)
	case *CountItemsArgs:
		return decodeCountItemsArgs(b, m)
	case *CountPairsArgs:
		return decodeCountPairsArgs(b, m)
	case *CountCandidatesArgs:
		return decodeCountCandidatesArgs(b, m)
	case *BuildTreeArgs:
		return decodeBuildTreeArgs(b, m)
	case *CountsReply:
		return decodeCountsReply(b, m)
	case *TreeReply:
		return decodeTreeReply(b, m)
	default:
		return fmt.Errorf("%w: no wire form for %T", ErrBadFrame, msg)
	}
}
