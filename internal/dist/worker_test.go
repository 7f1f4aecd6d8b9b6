package dist

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/fptree"
	"repro/internal/oracle"
	"repro/internal/transactions"
)

// workerMethods lists the worker's methods in the order FuzzWorkerRequest's
// method byte selects them.
var workerMethods = []string{MethodShip, MethodCountItems, MethodCountPairs, MethodCountCandidates, MethodBuildTree}

// serveRequest is a worker's serving side in one call: decode data as
// method's args, dispatch them to w, and return the reply or the error.
func serveRequest(w *Worker, method string, data []byte) (any, error) {
	args, reply, err := message(method)
	if err != nil {
		return nil, err
	}
	if err := decodeMessage(data, args); err != nil {
		return nil, err
	}
	return reply, dispatch(w, method, args, reply)
}

// replicaWorker returns a worker holding minedMessages' two shards, so
// the recorded requests find their replicas.
func replicaWorker(t testing.TB) *Worker {
	_, shards := minedShards(t)
	w := NewWorker()
	if err := w.Ship(ShipArgs{Shards: shards}, &ShipReply{}); err != nil {
		t.Fatal(err)
	}
	return w
}

// hostileRequests are the two requests that used to kill a worker process:
// a pass-k request in the layout that carried the hash tree's shape, with
// a fanout of 1<<50 and a leaf capacity of 1 (makeslice panicked building
// the first interior node), and a tree build whose rank table names ranks
// 7 and 9 on a one-rank table (fptree.Build indexed past it).
func hostileRequests(t testing.TB) map[string][]byte {
	old := wireWriter{}
	appendInts(&old, []int{0}, 0)
	old.int(3)       // K
	old.int(1 << 50) // the fanout field the layout no longer has
	old.int(1)       // the leaf capacity field, likewise
	old.stable([]transactions.Itemset{{1, 2, 3}, {2, 3, 5}})
	build, err := appendMessage(nil, &BuildTreeArgs{
		ShardIDs: []int{0, 1},
		Ranks:    &fptree.Ranks{OfItem: []int32{-1, 7, 9}, Items: []int32{1}, Counts: []int{4}},
	})
	if old.err != nil || err != nil {
		t.Fatal(old.err, err)
	}
	return map[string][]byte{MethodCountCandidates: old.b, MethodBuildTree: build}
}

// TestWorkerRejectsHostileRequests: both requests come back as errors
// from a worker that is still serving afterwards.
func TestWorkerRejectsHostileRequests(t *testing.T) {
	w := replicaWorker(t)
	for method, data := range hostileRequests(t) {
		if _, err := serveRequest(w, method, data); err == nil {
			t.Errorf("%s: hostile request served", method)
		}
	}
	if _, err := serveRequest(w, MethodCountCandidates, hostileRequests(t)[MethodCountCandidates]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("pass-k request carrying a tree shape: err = %v, want ErrBadFrame", err)
	}
	var reply CountsReply
	if err := w.CountCandidates(CountCandidatesArgs{ShardIDs: []int{0, 1}, K: 3, Candidates: []transactions.Itemset{{1, 2, 3}}}, &reply); err != nil || len(reply.Counts) != 1 || reply.Counts[0] != 1 {
		t.Fatalf("worker after hostile requests: err %v, counts %v", err, reply.Counts)
	}
}

// TestWorkerValidatesWireInput is the regression table for the pass-k
// request and for the reply sizes: a K below 1 or a candidate of another
// length, and a reply no frame could carry, are errors before any counter
// array exists.
func TestWorkerValidatesWireInput(t *testing.T) {
	w := replicaWorker(t)
	ascending := make([]int, 46342) // the least N whose triangle exceeds maxFrame
	for i := range ascending {
		ascending[i] = i
	}
	for name, tc := range map[string]struct {
		method string
		args   any
		want   error
	}{
		"k = 0":               {MethodCountCandidates, &CountCandidatesArgs{ShardIDs: []int{0}, K: 0}, errCandidateK},
		"k past the itemsets": {MethodCountCandidates, &CountCandidatesArgs{ShardIDs: []int{0}, K: 1 << 40, Candidates: []transactions.Itemset{{1, 2, 3}}}, errCandidateLength},
		"mixed lengths":       {MethodCountCandidates, &CountCandidatesArgs{ShardIDs: []int{0}, K: 3, Candidates: []transactions.Itemset{{1, 2, 3}, {1, 2}}}, errCandidateLength},
		"universe past frame": {MethodCountItems, &CountItemsArgs{ShardIDs: []int{0}, NumItems: maxFrame + 1}, nil},
		"universe of 1<<50":   {MethodCountItems, &CountItemsArgs{ShardIDs: []int{0}, NumItems: 1 << 50}, nil},
		"universe of MaxInt":  {MethodCountItems, &CountItemsArgs{ShardIDs: []int{0}, NumItems: math.MaxInt}, nil},
		"triangle past frame": {MethodCountPairs, &CountPairsArgs{ShardIDs: []int{0}, Rank: ascending, N: len(ascending)}, nil},
	} {
		_, reply, _ := message(tc.method)
		err := dispatch(w, tc.method, tc.args, reply)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want an error (%v)", name, err, tc.want)
		}
	}
}

// TestWorkerCountsByItsOwnData: the pass-k scan's item universe is the
// replicas' own, so a candidate naming an item far past all of them (1<<40)
// counts 0 beside exact counts for the rest, and the scan allocates by the
// replicas and the candidates, not by that item id.
func TestWorkerCountsByItsOwnData(t *testing.T) {
	db, _ := minedShards(t)
	w := replicaWorker(t)
	cands := []transactions.Itemset{{1, 2, 3}, {1, 2, 1 << 40}, {2, 3, 5}, {2, 5, 1 << 40}, {3, 4, 5}}
	var reply CountsReply
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.CountCandidates(CountCandidatesArgs{ShardIDs: []int{0, 1}, K: 3, Candidates: cands}, &reply)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		if want := oracle.Support(db.Transactions, c); len(reply.Counts) != len(cands) || int(reply.Counts[i]) != want {
			t.Fatalf("%v: counts %v, want %d in slot %d", c, reply.Counts, want, i)
		}
	}
	// The kernel's pooled scratch is at most a few KiB here; a table sized
	// by the item id would be terabytes.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("counting %d candidates over %d rows allocated %d bytes", len(cands), db.Len(), grew)
	}
}

// TestWorkerRefusesHugeReplicaItem: replica rows are wire input too, and
// a shipped row naming item 1<<40 would make the pass-k rank table that
// item's size once a candidate names it. The count is an error before any
// table exists, whether or not a candidate names the item, and the worker
// serves the next request exactly.
func TestWorkerRefusesHugeReplicaItem(t *testing.T) {
	w := replicaWorker(t)
	huge := ShardPayload{ID: 2, Txs: []transactions.Itemset{{1, 2, 3}, {1, 2, 1 << 40}}}
	if err := w.Ship(ShipArgs{Shards: []ShardPayload{huge}}, &ShipReply{}); err != nil {
		t.Fatal(err)
	}
	for _, cands := range [][]transactions.Itemset{{{1, 2, 3}}, {{1, 2, 3}, {1, 2, 1 << 40}}} {
		var reply CountsReply
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.CountCandidates(CountCandidatesArgs{ShardIDs: []int{0, 1, 2}, K: 3, Candidates: cands}, &reply)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("candidates %v over a replica naming 1<<40: counts %v, want an error", cands, reply.Counts)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("refusing candidates %v allocated %d bytes", cands, grew)
		}
	}
	var reply CountsReply
	if err := w.CountCandidates(CountCandidatesArgs{ShardIDs: []int{0, 1}, K: 3, Candidates: []transactions.Itemset{{1, 2, 3}}}, &reply); err != nil || len(reply.Counts) != 1 || reply.Counts[0] != 1 {
		t.Fatalf("worker after the refused count: err %v, counts %v", err, reply.Counts)
	}
}

// TestBuildTreeValidatesRanks is the regression table for the rank table
// of a tree build, checked the way CountPairs checks its ranks: on the
// worker directly and — as a non-retryable error — through LocalTransport's
// encode mode.
func TestBuildTreeValidatesRanks(t *testing.T) {
	db, shards := minedShards(t)
	counts := make([]int32, db.NumItems())
	for _, tx := range db.Transactions {
		transactions.CountItems(tx, counts)
	}
	cases := []struct {
		name  string
		ranks *fptree.Ranks
		ok    bool
	}{
		{"pass-1 ranks", fptree.NewRanks(counts, 2), true},
		{"no ranked items", fptree.NewRanks(counts, 100), true},
		{"empty table", &fptree.Ranks{}, true},
		{"ranks 7 and 9 of one", &fptree.Ranks{OfItem: []int32{-1, 7, 9}, Items: []int32{1}, Counts: []int{4}}, false},
		{"rank below -1", &fptree.Ranks{OfItem: []int32{-2, 0}, Items: []int32{1}, Counts: []int{4}}, false},
		{"rank of another item", &fptree.Ranks{OfItem: []int32{0, -1}, Items: []int32{1}, Counts: []int{4}}, false},
		{"two items, one rank", &fptree.Ranks{OfItem: []int32{0, 0}, Items: []int32{0}, Counts: []int{4}}, false},
		{"rank naming an unranked item", &fptree.Ranks{OfItem: []int32{-1, -1}, Items: []int32{1}, Counts: []int{4}}, false},
		{"rank naming an item past the table", &fptree.Ranks{OfItem: []int32{-1}, Items: []int32{5}, Counts: []int{4}}, false},
		{"counts short", &fptree.Ranks{OfItem: []int32{0}, Items: []int32{0}}, false},
		{"counts long", &fptree.Ranks{OfItem: []int32{0}, Items: []int32{0}, Counts: []int{1, 2}}, false},
	}
	w := replicaWorker(t)
	for _, tc := range cases {
		var reply TreeReply
		err := w.BuildTree(BuildTreeArgs{ShardIDs: []int{0, 1}, Ranks: tc.ranks}, &reply)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok {
			if _, err := fptree.Import(tc.ranks, reply.Nodes); err != nil {
				t.Errorf("%s: reply does not import: %v", tc.name, err)
			}
		}
	}
	if err := w.BuildTree(BuildTreeArgs{ShardIDs: []int{0}}, new(TreeReply)); err == nil {
		t.Error("nil rank table: built")
	}

	tr := NewLocalTransport(1, true)
	defer tr.Close()
	c := NewCoordinator(tr)
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := c.call(ctx, 0, MethodBuildTree, &BuildTreeArgs{ShardIDs: []int{0, 1}, Ranks: tc.ranks}, new(TreeReply))
		if (err == nil) != tc.ok {
			t.Errorf("local-encode: %s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && Retryable(err) {
			t.Errorf("local-encode: %s: a validation error is retryable: %v", tc.name, err)
		}
	}
	if st := c.Stats(); st.Retries != 0 || st.Failovers != 0 {
		t.Errorf("validation errors cost %d retries and %d failovers", st.Retries, st.Failovers)
	}
}

// maxFuzzCounters bounds the honest replies FuzzWorkerRequest asks for.
const maxFuzzCounters = 1 << 16

// replyCounters returns how many counters a count request asks for, as
// far as the request itself can say.
func replyCounters(args any) int {
	switch a := args.(type) {
	case *CountItemsArgs:
		return a.NumItems
	case *CountPairsArgs:
		if a.N <= len(a.Rank) {
			return a.N * (a.N - 1) / 2
		}
	case *CountCandidatesArgs:
		return len(a.Candidates)
	}
	return 0
}

// FuzzWorkerRequest decodes arbitrary bytes as one of the worker's
// methods' args (the first byte picks it) and dispatches them to a worker
// holding real replicas: every input gets a reply or an error, never a
// panic, and a reply is what a transport could carry back — it encodes,
// and a count reply has exactly the counters its request asked for. A
// request is as expensive as the reply it honestly asks for, so ones
// asking for more than maxFuzzCounters counters that would still fit a
// frame are left out; past the frame cap the worker must refuse them.
func FuzzWorkerRequest(f *testing.F) {
	method := make(map[string]byte, len(workerMethods))
	byKind := make(map[byte]byte, len(workerMethods)) // wireKinds index -> method byte
	for i, name := range workerMethods {
		args, _, _ := message(name)
		method[name], byKind[kindOf(args)] = byte(i), byte(i)
	}
	for _, m := range minedMessages(f) {
		if i, ok := byKind[m[0]]; ok {
			f.Add(i, m[1:])
		}
	}
	for name, data := range hostileRequests(f) {
		f.Add(method[name], data)
	}
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		name := workerMethods[int(pick)%len(workerMethods)]
		args, reply, err := message(name)
		if err != nil {
			t.Fatal(err)
		}
		if decodeMessage(data, args) != nil {
			return
		}
		want := replyCounters(args)
		if want > maxFuzzCounters && want <= maxFrame {
			return
		}
		if err := dispatch(replicaWorker(t), name, args, reply); err != nil {
			return
		}
		if _, err := appendMessage(nil, reply); err != nil {
			t.Fatalf("%s: reply does not encode: %v", name, err)
		}
		if r, ok := reply.(*CountsReply); ok && len(r.Counts) != want {
			t.Fatalf("%s: %d counters, want %d", name, len(r.Counts), want)
		}
	})
}
