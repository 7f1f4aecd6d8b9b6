package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// wireKinds lists a constructor per message type, in the order the fuzz
// target's kind byte selects them.
var wireKinds = []func() any{
	func() any { return new(ShipArgs) },
	func() any { return new(ShipReply) },
	func() any { return new(CountItemsArgs) },
	func() any { return new(CountPairsArgs) },
	func() any { return new(CountCandidatesArgs) },
	func() any { return new(BuildTreeArgs) },
	func() any { return new(CountsReply) },
	func() any { return new(TreeReply) },
}

// sameRows reports row-wise equality, nil and empty alike.
func sameRows(a, b []transactions.Itemset) bool {
	return slices.EqualFunc(a, b, func(x, y transactions.Itemset) bool { return slices.Equal(x, y) })
}

// sameMessage compares two messages of one type field by field, treating
// nil and empty slices alike (the decoders return empty ones).
func sameMessage(a, b any) bool {
	switch x := a.(type) {
	case *ShipArgs:
		y := b.(*ShipArgs)
		return slices.EqualFunc(x.Shards, y.Shards, func(p, q ShardPayload) bool {
			return p.ID == q.ID && p.Version == q.Version && sameRows(p.Txs, q.Txs)
		})
	case *ShipReply:
		return true
	case *CountItemsArgs:
		y := b.(*CountItemsArgs)
		return slices.Equal(x.ShardIDs, y.ShardIDs) && x.NumItems == y.NumItems
	case *CountPairsArgs:
		y := b.(*CountPairsArgs)
		return slices.Equal(x.ShardIDs, y.ShardIDs) && x.N == y.N && slices.Equal(x.Rank, y.Rank)
	case *CountCandidatesArgs:
		y := b.(*CountCandidatesArgs)
		return slices.Equal(x.ShardIDs, y.ShardIDs) && x.K == y.K && sameRows(x.Candidates, y.Candidates)
	case *BuildTreeArgs:
		y := b.(*BuildTreeArgs)
		return slices.Equal(x.ShardIDs, y.ShardIDs) && slices.Equal(x.Ranks.OfItem, y.Ranks.OfItem) &&
			slices.Equal(x.Ranks.Items, y.Ranks.Items) && slices.Equal(x.Ranks.Counts, y.Ranks.Counts)
	case *CountsReply:
		return slices.Equal(x.Counts, b.(*CountsReply).Counts)
	case *TreeReply:
		return slices.Equal(x.Nodes, b.(*TreeReply).Nodes)
	}
	return false
}

// randomInts returns n values drawn from [lo, hi].
func randomInts(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo+1)
	}
	return out
}

// randomRows returns n sorted duplicate-free rows, some empty.
func randomRows(rng *rand.Rand, n int) []transactions.Itemset {
	rows := make([]transactions.Itemset, n)
	for i := range rows {
		rows[i] = transactions.NewItemset(randomInts(rng, rng.Intn(7), 0, 400)...)
	}
	return rows
}

// randomMessages returns one random message of every type.
func randomMessages(rng *rand.Rand) []any {
	ship := &ShipArgs{}
	for i := rng.Intn(4); i > 0; i-- {
		ship.Shards = append(ship.Shards, ShardPayload{ID: rng.Intn(50), Version: rng.Uint64(), Txs: randomRows(rng, rng.Intn(20))})
	}
	ranks := &fptree.Ranks{Counts: randomInts(rng, rng.Intn(9), 0, 1000)}
	for range ranks.Counts {
		ranks.Items = append(ranks.Items, int32(rng.Intn(100)))
	}
	for i := rng.Intn(30); i > 0; i-- {
		ranks.OfItem = append(ranks.OfItem, int32(rng.Intn(10)-1))
	}
	tree := &TreeReply{}
	for i := rng.Intn(12); i > 0; i-- {
		tree.Nodes = append(tree.Nodes, fptree.EncodedNode{Rank: int32(rng.Intn(9)), Parent: int32(rng.Intn(12)), Count: rng.Intn(500)})
	}
	counts := make([]int32, rng.Intn(200))
	for i := range counts {
		counts[i] = rng.Int31n(1<<20 + 1)
	}
	k := 3 + rng.Intn(3)
	cands := make([]transactions.Itemset, rng.Intn(10))
	for i := range cands {
		cands[i] = transactions.NewItemset(rng.Perm(60)[:k]...)
	}
	return []any{
		ship,
		&ShipReply{},
		&CountItemsArgs{ShardIDs: randomInts(rng, rng.Intn(5), 0, 40), NumItems: rng.Intn(5000)},
		&CountPairsArgs{ShardIDs: randomInts(rng, rng.Intn(5), 0, 40), N: rng.Intn(300), Rank: randomInts(rng, rng.Intn(40), -1, 299)},
		&CountCandidatesArgs{ShardIDs: randomInts(rng, rng.Intn(5), 0, 40), K: k, Candidates: cands},
		&BuildTreeArgs{ShardIDs: randomInts(rng, rng.Intn(5), 0, 40), Ranks: ranks},
		&CountsReply{Counts: counts},
		tree,
	}
}

// edgeMessages are the corner cases of the round-trip property: empty
// shards, empty transactions, an empty candidate list, and values at the
// int32 and int edges of every field that can hold them (counters, which
// the wire bounds to math.MaxInt32, at the int32 edge).
func edgeMessages() []any {
	const top = math.MaxInt
	return []any{
		&ShipArgs{},
		&ShipArgs{Shards: []ShardPayload{{}, {ID: top, Version: math.MaxUint64, Txs: []transactions.Itemset{{}, {}, {0}, {math.MaxInt32 - 1, math.MaxInt32}, {0, top}}}}},
		&CountItemsArgs{},
		&CountItemsArgs{ShardIDs: []int{0, top}, NumItems: top},
		&CountPairsArgs{},
		&CountPairsArgs{ShardIDs: []int{top}, N: top, Rank: []int{-1, 0, top, -1}},
		&CountCandidatesArgs{},
		&CountCandidatesArgs{ShardIDs: []int{1}, K: top, Candidates: []transactions.Itemset{{math.MaxInt32, top - 1, top}}},
		&BuildTreeArgs{Ranks: &fptree.Ranks{}},
		&BuildTreeArgs{ShardIDs: []int{top}, Ranks: &fptree.Ranks{OfItem: []int32{-1, math.MaxInt32}, Items: []int32{math.MaxInt32, 0}, Counts: []int{top, 0}}},
		&CountsReply{},
		&CountsReply{Counts: []int32{0, math.MaxInt32, 1}},
		&TreeReply{},
		&TreeReply{Nodes: []fptree.EncodedNode{{Rank: math.MaxInt32, Parent: math.MaxInt32, Count: math.MaxInt32}, {}}},
	}
}

// TestWireRoundTrip is the codec's property: decode(append(x)) == x for
// every message type, on random messages and on the edge cases, and
// re-encoding the decoded message reproduces the bytes.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	msgs := edgeMessages()
	for i := 0; i < 60; i++ {
		msgs = append(msgs, randomMessages(rng)...)
	}
	for i, m := range msgs {
		b, err := appendMessage([]byte("head"), m)
		if err != nil {
			t.Fatalf("message %d (%T): encode: %v", i, m, err)
		}
		if !bytes.HasPrefix(b, []byte("head")) {
			t.Fatalf("message %d (%T): encode clobbered dst's prefix", i, m)
		}
		b = b[len("head"):]
		got := zeroLike(m)
		if err := decodeMessage(b, got); err != nil {
			t.Fatalf("message %d (%T): decode: %v", i, m, err)
		}
		if !sameMessage(m, got) {
			t.Fatalf("message %d: round trip changed it:\n got %+v\nwant %+v", i, got, m)
		}
		again, err := appendMessage(nil, got)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("message %d (%T): re-encode gives %x (%v), want %x", i, m, again, err, b)
		}
	}
}

// TestWireRejectsMalformed: every proper prefix of a message, and the
// message followed by one more byte, fail with ErrBadFrame — which the
// retry loop must not retry.
func TestWireRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range append(edgeMessages(), randomMessages(rng)...) {
		b, err := appendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(b); n++ {
			if err := decodeMessage(b[:n], zeroLike(m)); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%T: prefix %d of %d: err = %v, want ErrBadFrame", m, n, len(b), err)
			}
		}
		err = decodeMessage(append(b, 0x00), zeroLike(m))
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%T: trailing byte: err = %v, want ErrBadFrame", m, err)
		}
		if Retryable(err) {
			t.Fatalf("%T: ErrBadFrame is retryable", m)
		}
	}
	// A stable-block failure keeps the transactions sentinel in the chain.
	err := decodeMessage([]byte{0x01, 0x00, 0x00, 0x02, 0x7f, 0x00}, new(ShipArgs))
	if !errors.Is(err, ErrBadFrame) || !errors.Is(err, transactions.ErrBadEncoding) {
		t.Fatalf("bad stable block: err = %v, want ErrBadFrame wrapping ErrBadEncoding", err)
	}
	// A block shorter than its declared length is not padded from what follows.
	err = decodeMessage([]byte{0x01, 0x00, 0x00, 0x03, 0x01, 0x00, 0x00}, new(ShipArgs))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("stable block with slack: err = %v, want ErrBadFrame", err)
	}
	if err := decodeMessage(nil, new(int)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown message type: err = %v", err)
	}
	// Counters are bounded to the int32 counts they land in: a count reply
	// or a tree node one past math.MaxInt32 does not decode.
	for _, tc := range []struct {
		name string
		b    []byte
		msg  any
	}{
		{"counter", countsReplyPastInt32, new(CountsReply)},
		{"node count", treeReplyPastInt32, new(TreeReply)},
	} {
		if err := decodeMessage(tc.b, tc.msg); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s past math.MaxInt32: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

// countsReplyPastInt32 and treeReplyPastInt32 are a CountsReply and a
// TreeReply whose one counter is math.MaxInt32+1: well-formed uvarints that
// no int32 count can hold.
var (
	countsReplyPastInt32 = binary.AppendUvarint([]byte{0x01}, math.MaxInt32+1)
	treeReplyPastInt32   = binary.AppendUvarint([]byte{0x01, 0x00, 0x00}, math.MaxInt32+1)
)

// TestWireEncodeRangeChecks: values the format cannot carry fail the
// encode with ErrBadFrame instead of travelling as something else.
func TestWireEncodeRangeChecks(t *testing.T) {
	for name, m := range map[string]any{
		"negative shard id":        &ShipArgs{Shards: []ShardPayload{{ID: -1}}},
		"unsorted shard row":       &ShipArgs{Shards: []ShardPayload{{Txs: []transactions.Itemset{{2, 1}}}}},
		"negative universe":        &CountItemsArgs{NumItems: -1},
		"negative shard id in ids": &CountItemsArgs{ShardIDs: []int{-3}},
		"rank below -1":            &CountPairsArgs{Rank: []int{-2}},
		"negative N":               &CountPairsArgs{N: -1},
		"negative K":               &CountCandidatesArgs{K: -1},
		"duplicate candidate item": &CountCandidatesArgs{Candidates: []transactions.Itemset{{4, 4, 5}}},
		"no rank table":            &BuildTreeArgs{},
		"negative rank item":       &BuildTreeArgs{Ranks: &fptree.Ranks{Items: []int32{-1}}},
		"negative count":           &CountsReply{Counts: []int32{1, -1}},
		"negative node count":      &TreeReply{Nodes: []fptree.EncodedNode{{Count: -1}}},
		"node count past int32":    &TreeReply{Nodes: []fptree.EncodedNode{{Count: math.MaxInt32 + 1}}},
		"not a message":            new(int),
	} {
		if _, err := appendMessage(nil, m); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// recordingTransport forwards to inner and keeps the wire form of every
// args and reply that passed — real messages to seed the fuzz corpus with.
type recordingTransport struct {
	Transport
	mu   sync.Mutex // the coordinator calls distinct workers concurrently
	seen [][]byte   // each entry: a wireKinds index byte, then that message encoded
}

func (r *recordingTransport) Call(ctx context.Context, w int, method string, args, reply any) error {
	err := r.Transport.Call(ctx, w, method, args, reply)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range []any{args, reply} {
		if b, eerr := appendMessage(nil, m); eerr == nil {
			r.seen = append(r.seen, append([]byte{kindOf(m)}, b...))
		}
	}
	return err
}

// kindOf returns m's index in wireKinds.
func kindOf(m any) byte {
	for k, mk := range wireKinds {
		if reflect.TypeOf(mk()) == reflect.TypeOf(m) {
			return byte(k)
		}
	}
	panic("not a wire message")
}

// zeroLike returns a new zero message of m's type, a decode target.
func zeroLike(m any) any { return wireKinds[kindOf(m)]() }

// minedShards returns the two shards minedMessages mines.
func minedShards(t testing.TB) (*transactions.DB, []ShardPayload) {
	db := transactions.NewDB()
	for _, tx := range [][]int{{1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5}, {0, 1, 2}, {3, 4, 5}, {1, 2}, {}} {
		if err := db.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	return db, testShards(db, 2, 7)
}

// minedMessages runs the scans of a small two-worker mine — ship, pass 1,
// pass 2, a pass-3 candidate scan and a tree build — and returns every
// message that crossed the transport, each prefixed with its kind byte.
func minedMessages(t testing.TB) [][]byte {
	db, shards := minedShards(t)
	rec := &recordingTransport{Transport: NewLocalTransport(2, false)}
	defer rec.Close()
	c := NewCoordinator(rec)
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	counts, err := c.CountItems(ctx, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	rank := []int{-1, 0, 1, 2, -1, 3}
	if _, err := c.CountPairs(ctx, rank, 4); err != nil {
		t.Fatal(err)
	}
	cands := []transactions.Itemset{transactions.NewItemset(1, 2, 3), transactions.NewItemset(2, 3, 5)}
	if _, err := c.CountCandidates(ctx, 3, cands); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildTree(ctx, fptree.NewRanks(counts, 2)); err != nil {
		t.Fatal(err)
	}
	return rec.seen
}

// footprint sums the bytes of every slice backing array reachable from v.
func footprint(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return footprint(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
		return n
	}
	return 0
}

// FuzzDecodeWire runs all eight decoders (the first byte picks one) on
// arbitrary bytes: no panic, only ErrBadFrame, nothing decoded into more
// than a small multiple of the input, and a message that decodes
// re-encodes to exactly the input.
func FuzzDecodeWire(f *testing.F) {
	for _, m := range minedMessages(f) {
		f.Add(m[0], m[1:])
		f.Add(m[0], m[1:len(m)-len(m)/3])
	}
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})                   // shard-count bomb
	f.Add(byte(6), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // counter-count bomb
	f.Add(byte(7), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01})             // node-count bomb
	f.Add(byte(3), []byte{0x00, 0x80, 0x00, 0x00})                         // non-minimal N
	f.Add(byte(6), countsReplyPastInt32)                                   // counter past math.MaxInt32
	f.Add(byte(7), treeReplyPastInt32)                                     // node count past math.MaxInt32
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		m := wireKinds[int(kind)%len(wireKinds)]()
		if err := decodeMessage(data, m); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%T: untyped error: %v", m, err)
			}
			return
		}
		// The dearest element is a 40-byte shard header per 5 input bytes
		// and a 24-byte row header plus an 8-byte slot per stable byte. What
		// a block's arena pins beyond its clamped rows is not reachable from
		// here; TestShipDecodeAllocatesByTheBlock measures that.
		if held := footprint(reflect.ValueOf(m)); held > 40*len(data)+64 {
			t.Fatalf("%T: decoded %d bytes into %d", m, len(data), held)
		}
		re, err := appendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: re-encode of a decoded message: %v", m, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("%T: re-encode differs:\n got %x\nwant %x", m, re, data)
		}
	})
}

// TestShipDecodeAllocatesByTheBlock: decoding a message of many shards
// allocates a small multiple of the message, measured on the heap and not
// on the rows' clamped capacities — each block's arena is sized from that
// block, not from the block and every shard after it (which made the total
// quadratic in the shard count, all of it pinned by the worker's replicas).
func TestShipDecodeAllocatesByTheBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store := &ShipArgs{}
	for id := 0; id < 256; id++ {
		store.Shards = append(store.Shards, ShardPayload{ID: id, Version: 1, Txs: randomRows(rng, 64)})
	}
	empties := &ShipArgs{Shards: make([]ShardPayload, 4096)}
	for name, m := range map[string]*ShipArgs{"a 256-shard store": store, "4096 empty shards": empties} {
		b, err := appendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		var got ShipArgs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decodeMessage(b, &got)
		runtime.ReadMemStats(&after)
		if err != nil || !sameMessage(m, &got) {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// 40 bytes of shard header per 5-byte empty shard is the dearest a
		// byte can get; the slack covers the runtime's own bookkeeping.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 40*uint64(len(b))+4096 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(b), grew)
		}
	}
}

// TestMinedMessagesCoverEveryKind keeps the fuzz seeds honest: the small
// mine must put all eight message types on the wire.
func TestMinedMessagesCoverEveryKind(t *testing.T) {
	seen := make([]bool, len(wireKinds))
	for _, m := range minedMessages(t) {
		seen[m[0]] = true
		if err := decodeMessage(m[1:], wireKinds[m[0]]()); err != nil {
			t.Errorf("recorded %T does not decode: %v", wireKinds[m[0]](), err)
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("no %T crossed the transport", wireKinds[k]())
		}
	}
}

// TestWorkerIndexOutOfRange: the transport in both modes reports a worker
// it does not reach with a sentinel, not a panic, and it is not retried.
func TestWorkerIndexOutOfRange(t *testing.T) {
	for name, tr := range map[string]Transport{
		"local":        NewLocalTransport(2, false),
		"local-encode": NewLocalTransport(2, true),
	} {
		for _, w := range []int{-1, tr.NumWorkers(), 99} {
			err := tr.Call(ctx, w, MethodShip, &ShipArgs{}, &ShipReply{})
			if !errors.Is(err, ErrNoSuchWorker) {
				t.Errorf("%s: worker %d: err = %v, want ErrNoSuchWorker", name, w, err)
			}
			if Retryable(err) {
				t.Errorf("%s: ErrNoSuchWorker is retryable", name)
			}
		}
		if err := tr.Call(ctx, 0, MethodShip, &ShipArgs{}, &ShipReply{}); err != nil {
			t.Errorf("%s: in-range call after the bad ones: %v", name, err)
		}
		tr.Close()
	}
}

// TestCountPairsValidatesWireInput is the regression table for the pass-2
// request: a malformed N or rank table is an error before any allocation
// or indexing, on the worker directly and — as a non-retryable error —
// through the coordinator over LocalTransport's encode mode.
func TestCountPairsValidatesWireInput(t *testing.T) {
	txs := []transactions.Itemset{transactions.NewItemset(0, 1, 2, 3)}
	cases := []struct {
		name string
		args CountPairsArgs
		ok   bool
	}{
		{"dense ranks", CountPairsArgs{Rank: []int{0, 1, 2, 3}, N: 4}, true},
		{"sparse ascending ranks", CountPairsArgs{Rank: []int{-1, 0, -1, 2}, N: 3}, true},
		{"no ranks", CountPairsArgs{Rank: []int{-1, -1}, N: 0}, true},
		{"negative N", CountPairsArgs{Rank: []int{0, 1}, N: -1}, false},
		{"N past the table", CountPairsArgs{Rank: []int{0, 1}, N: 3}, false},
		{"huge N", CountPairsArgs{Rank: []int{0, 1}, N: 1 << 40}, false},
		{"rank == N", CountPairsArgs{Rank: []int{0, 2, -1}, N: 2}, false},
		{"rank below -1", CountPairsArgs{Rank: []int{0, -2, 1}, N: 3}, false},
		{"descending ranks", CountPairsArgs{Rank: []int{1, 0, 2}, N: 3}, false},
		{"repeated rank", CountPairsArgs{Rank: []int{0, 0, 1}, N: 3}, false},
	}
	w := NewWorker()
	if err := w.Ship(ctx, ShipArgs{Shards: []ShardPayload{{ID: 0, Version: 1, Txs: txs}}}, &ShipReply{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc.args.ShardIDs = []int{0}
		var reply CountsReply
		err := w.CountPairs(ctx, tc.args, &reply)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && len(reply.Counts) != tc.args.N*(tc.args.N-1)/2 {
			t.Errorf("%s: %d counters, want %d", tc.name, len(reply.Counts), tc.args.N*(tc.args.N-1)/2)
		}
	}

	tr := NewLocalTransport(1, true)
	defer tr.Close()
	c := NewCoordinator(tr)
	if err := c.Sync(ctx, []ShardPayload{{ID: 0, Version: 1, Txs: txs}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		// The retrying call the coordinator's scans go through; its own
		// CountPairs sizes the merge array from N, so a request this
		// malformed can only come from a peer that is not one.
		tc.args.ShardIDs = []int{0}
		_, err := c.call(ctx, 0, MethodCountPairs, &tc.args, func() any { return new(CountsReply) })
		if (err == nil) != tc.ok {
			t.Errorf("coordinator: %s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && Retryable(err) {
			t.Errorf("coordinator: %s: a validation error is retryable: %v", tc.name, err)
		}
	}
	if st := c.Stats(); st.Retries != 0 || st.Failovers != 0 {
		t.Errorf("validation errors cost %d retries and %d failovers", st.Retries, st.Failovers)
	}
}
