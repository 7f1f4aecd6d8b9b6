package dist

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/fptree"
	"repro/internal/transactions"
)

// ctx is the background context shared by tests that do not exercise
// cancellation (the transport contract tests live in the assoc package).
var ctx = context.Background()

// testShards splits db into n payloads with the given version, mirroring
// the plain-DB path of the assoc engine.
func testShards(db *transactions.DB, n int, version uint64) []ShardPayload {
	var out []ShardPayload
	for i, sh := range db.Shards(n) {
		out = append(out, ShardPayload{ID: i, Version: version, Txs: sh.Transactions})
	}
	return out
}

func testDB(t *testing.T) *transactions.DB {
	t.Helper()
	db := transactions.NewDB()
	for _, tx := range [][]int{
		{1, 3, 4},
		{2, 3, 5},
		{1, 2, 3, 5},
		{2, 5},
		{0, 1, 2},
		{3, 4, 5},
		{1, 2},
	} {
		if err := db.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// localCounts computes the oracle pass-1 counts.
func localCounts(db *transactions.DB) []int {
	counts := make([]int, db.NumItems())
	for _, tx := range db.Transactions {
		for _, item := range tx {
			counts[item]++
		}
	}
	return counts
}

func eachTransport(t *testing.T, fn func(t *testing.T, tr Transport)) {
	t.Helper()
	// "local-gob" is the encode mode; the label predates the wire codec and
	// stays so the subtest ids CI tracks do not move.
	for _, tc := range []struct {
		name   string
		encode bool
	}{{"local", false}, {"local-gob", true}} {
		for _, workers := range []int{1, 2, 4} {
			tr := NewLocalTransport(workers, tc.encode)
			t.Run(tc.name+"/"+string(rune('0'+workers)), func(t *testing.T) {
				fn(t, tr)
			})
			tr.Close()
		}
	}
}

func TestCountItemsMatchesLocalScan(t *testing.T) {
	db := testDB(t)
	want := localCounts(db)
	eachTransport(t, func(t *testing.T, tr Transport) {
		c := NewCoordinator(tr)
		if err := c.Sync(ctx, testShards(db, tr.NumWorkers(), 1)); err != nil {
			t.Fatal(err)
		}
		got, err := c.CountItems(ctx, db.NumItems())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("counts len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("count[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestCountPairsMatchesBruteForce(t *testing.T) {
	db := testDB(t)
	// Rank every item (all "frequent"), so the triangle covers all pairs.
	n := db.NumItems()
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	tri := func(i, j int) int { return i*(2*n-i-1)/2 + (j - i - 1) }
	want := make([]int, n*(n-1)/2)
	for _, tx := range db.Transactions {
		for a := 0; a < len(tx); a++ {
			for b := a + 1; b < len(tx); b++ {
				want[tri(tx[a], tx[b])]++
			}
		}
	}
	eachTransport(t, func(t *testing.T, tr Transport) {
		c := NewCoordinator(tr)
		if err := c.Sync(ctx, testShards(db, tr.NumWorkers(), 1)); err != nil {
			t.Fatal(err)
		}
		got, err := c.CountPairs(ctx, rank, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pair count %d = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestCountCandidatesMatchesSupport(t *testing.T) {
	db := testDB(t)
	cands := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(2, 3, 5),
		transactions.NewItemset(1, 2, 5),
		transactions.NewItemset(3, 4, 5),
	}
	eachTransport(t, func(t *testing.T, tr Transport) {
		c := NewCoordinator(tr)
		if err := c.Sync(ctx, testShards(db, tr.NumWorkers(), 1)); err != nil {
			t.Fatal(err)
		}
		got, err := c.CountCandidates(ctx, 3, cands)
		if err != nil {
			t.Fatal(err)
		}
		for i, cand := range cands {
			if want := db.Support(cand); got[i] != want {
				t.Errorf("support(%v) = %d, want %d", cand, got[i], want)
			}
		}
	})
}

// mergedNodes folds a forest's trees into one with Merge — the reference a
// forest must equal — and returns its node count.
func mergedNodes(r *fptree.Ranks, forest fptree.Forest) int {
	merged := fptree.New(r)
	for _, t := range forest.Trees() {
		merged.Merge(t)
	}
	return merged.NumNodes()
}

func TestBuildTreeMatchesLocalBuild(t *testing.T) {
	db := testDB(t)
	ranks := fptree.NewRanks(localCounts(db), 2)
	local := fptree.Build(db.Transactions, ranks)
	eachTransport(t, func(t *testing.T, tr Transport) {
		c := NewCoordinator(tr)
		if err := c.Sync(ctx, testShards(db, tr.NumWorkers(), 1)); err != nil {
			t.Fatal(err)
		}
		forest, err := c.BuildTree(ctx, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(forest.Trees()); got != tr.NumWorkers() {
			t.Errorf("forest has %d trees, want one per worker (%d): no coordinator-side merge", got, tr.NumWorkers())
		}
		for rk := int32(0); int(rk) < ranks.Len(); rk++ {
			if forest.Total(rk) != local.Total(rk) {
				t.Errorf("total(rank %d) = %d, want %d", rk, forest.Total(rk), local.Total(rk))
			}
		}
		if n := mergedNodes(ranks, forest); n != local.NumNodes() {
			t.Errorf("nodes = %d, want %d", n, local.NumNodes())
		}
	})
}

func TestSyncReshipsOnlyDirtyShards(t *testing.T) {
	db := testDB(t)
	tr := NewLocalTransport(2, true)
	defer tr.Close()
	c := NewCoordinator(tr)
	shards := testShards(db, 4, 1)
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ShippedShards; got != 4 {
		t.Fatalf("initial ship = %d shards, want 4", got)
	}
	// Unchanged versions: nothing moves.
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ShippedShards; got != 4 {
		t.Fatalf("clean re-sync shipped %d total, want 4", got)
	}
	// One dirty shard: exactly one moves.
	shards[2].Version = 2
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ShippedShards; got != 5 {
		t.Fatalf("dirty re-sync shipped %d total, want 5", got)
	}
	// Reset forgets versions: everything moves again.
	c.Reset()
	if err := c.Sync(ctx, shards); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ShippedShards; got != 9 {
		t.Fatalf("post-reset sync shipped %d total, want 9", got)
	}
}

func TestWorkerMissingShard(t *testing.T) {
	w := NewWorker()
	var reply CountsReply
	err := w.CountItems(CountItemsArgs{ShardIDs: []int{3}, NumItems: 4}, &reply)
	if !errors.Is(err, ErrNoShard) {
		t.Fatalf("err = %v, want ErrNoShard", err)
	}
}

func TestLocalTransportClosed(t *testing.T) {
	tr := NewLocalTransport(1, false)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	err := tr.Call(ctx, 0, MethodShip, &ShipArgs{}, &ShipReply{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestBadMethod(t *testing.T) {
	tr := NewLocalTransport(1, false)
	defer tr.Close()
	if err := tr.Call(ctx, 0, "Nope", &ShipArgs{}, &ShipReply{}); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("err = %v, want ErrBadMethod", err)
	}
	tr2 := NewLocalTransport(1, true)
	defer tr2.Close()
	if err := tr2.Call(ctx, 0, "Nope", &ShipArgs{}, &ShipReply{}); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("encode err = %v, want ErrBadMethod", err)
	}
}

// TestRPCTransport runs a real net/rpc worker over loopback TCP and checks
// the counts match the local scan — the deployment transport end to end.
func TestRPCTransport(t *testing.T) {
	db := testDB(t)
	var listeners []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		defer l.Close()
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
		go ServeWorker(l, NewWorker())
	}
	tr, err := DialRPC(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.NumWorkers() != 2 {
		t.Fatalf("workers = %d", tr.NumWorkers())
	}
	c := NewCoordinator(tr)
	if err := c.Sync(ctx, testShards(db, 3, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := c.CountItems(ctx, db.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	want := localCounts(db)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("count[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// FP-tree build over RPC: the rank table round-trips through the wire.
	ranks := fptree.NewRanks(want, 2)
	forest, err := c.BuildTree(ctx, ranks)
	if err != nil {
		t.Fatal(err)
	}
	local := fptree.Build(db.Transactions, ranks)
	if n := mergedNodes(ranks, forest); n != local.NumNodes() {
		t.Errorf("rpc tree nodes = %d, want %d", n, local.NumNodes())
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	c := NewCoordinator(&RPCTransport{})
	if err := c.Sync(ctx, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// stubTransport lets tests inject malformed replies.
type stubTransport struct {
	counts []int
}

func (s *stubTransport) NumWorkers() int { return 1 }
func (s *stubTransport) Call(_ context.Context, w int, method string, args, reply any) error {
	if r, ok := reply.(*CountsReply); ok {
		r.Counts = s.counts
	}
	return nil
}
func (s *stubTransport) Close() error { return nil }

func TestCountMergedRejectsWrongLengthReply(t *testing.T) {
	c := NewCoordinator(&stubTransport{counts: make([]int, 9)})
	if err := c.Sync(ctx, []ShardPayload{{ID: 0, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CountItems(ctx, 4); err == nil {
		t.Fatal("oversized reply buffer accepted")
	}
}

func TestRPCTransportClosedCall(t *testing.T) {
	tr := &RPCTransport{}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Call(ctx, 0, MethodShip, &ShipArgs{}, &ShipReply{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
