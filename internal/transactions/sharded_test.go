package transactions

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestShardedDBCapNormalisation(t *testing.T) {
	if got := NewShardedDB(0).shardCap; got != DefaultShardCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultShardCap)
	}
	if got := NewShardedDB(100).shardCap; got != 128 {
		t.Fatalf("cap 100 normalised to %d, want 128", got)
	}
	if got := NewShardedDB(64).shardCap; got != 64 {
		t.Fatalf("cap 64 normalised to %d, want 64", got)
	}
}

func TestShardedDBAppendDelete(t *testing.T) {
	s := NewShardedDB(64)
	for i := 0; i < 130; i++ {
		if err := s.Append(i%7, (i+1)%7); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 130 || s.NumShards() != 3 {
		t.Fatalf("len=%d shards=%d, want 130/3", s.Len(), s.NumShards())
	}
	if s.NumItems() != 7 {
		t.Fatalf("NumItems=%d, want 7", s.NumItems())
	}

	// Deleting from the middle shard bumps only its version.
	v0, v1, v2 := s.Version(0), s.Version(1), s.Version(2)
	tx, err := s.DeleteAt(70) // shard 1, local offset 6
	if err != nil {
		t.Fatal(err)
	}
	if tx == nil {
		t.Fatal("DeleteAt returned nil itemset")
	}
	if s.Len() != 129 {
		t.Fatalf("len=%d after delete, want 129", s.Len())
	}
	if s.Version(0) != v0 || s.Version(1) != v1+1 || s.Version(2) != v2 {
		t.Fatalf("versions after middle delete: %d/%d/%d (was %d/%d/%d); only shard 1 should bump",
			s.Version(0), s.Version(1), s.Version(2), v0, v1, v2)
	}

	// Appends touch only the last shard.
	if err := s.Append(3); err != nil {
		t.Fatal(err)
	}
	if s.Version(0) != v0 || s.Version(1) != v1+1 {
		t.Fatal("append dirtied a non-last shard")
	}

	if _, err := s.DeleteAt(-1); err == nil {
		t.Fatal("DeleteAt(-1) should fail")
	}
	if _, err := s.DeleteAt(s.Len()); err == nil {
		t.Fatal("DeleteAt(len) should fail")
	}
	if err := s.Append(-1); err == nil {
		t.Fatal("Append(-1) should fail")
	}
}

func TestShardedDBSnapshotMatchesPlainDB(t *testing.T) {
	plain := NewDB()
	s := NewShardedDB(64)
	add := func(items ...int) {
		if err := plain.Add(items...); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(items...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		add(i%11, (i*3)%11, (i*7)%11)
	}
	// Delete the same global positions from both.
	for _, tid := range []int{150, 90, 3, 0, 77} {
		if _, err := s.DeleteAt(tid); err != nil {
			t.Fatal(err)
		}
		plain.Transactions = append(plain.Transactions[:tid:tid], plain.Transactions[tid+1:]...)
	}
	snap := s.Snapshot()
	if snap.Len() != plain.Len() {
		t.Fatalf("snapshot len=%d, want %d", snap.Len(), plain.Len())
	}
	for i := range plain.Transactions {
		if !snap.Transactions[i].Equal(plain.Transactions[i]) {
			t.Fatalf("tx %d: snapshot %v != plain %v", i, snap.Transactions[i], plain.Transactions[i])
		}
	}
	if snap.NumItems() != plain.NumItems() {
		t.Fatalf("snapshot NumItems=%d, want %d", snap.NumItems(), plain.NumItems())
	}

	// ShardView bases tile the snapshot.
	seen := 0
	for i := 0; i < s.NumShards(); i++ {
		view, _ := s.ShardView(i)
		if view.Base != seen {
			t.Fatalf("shard %d base=%d, want %d", i, view.Base, seen)
		}
		seen += len(view.Transactions)
	}
	if seen != s.Len() {
		t.Fatalf("shard views cover %d txs, want %d", seen, s.Len())
	}
}

func TestShardedDBAbsoluteSupportMatchesDB(t *testing.T) {
	s := NewShardedDB(64)
	db := NewDB()
	for i := 0; i < 97; i++ {
		_ = s.Append(i % 5)
		_ = db.Add(i % 5)
	}
	for _, rel := range []float64{0.001, 0.01, 0.333, 0.5, 1} {
		if got, want := s.AbsoluteSupport(rel), db.AbsoluteSupport(rel); got != want {
			t.Fatalf("AbsoluteSupport(%v) = %d, want %d", rel, got, want)
		}
	}
}

// TestShardedDBRandomizedDeleteToEmpty is the DeleteAt compaction audit:
// randomized interleavings of appends and deletes — biased towards
// deleting tail elements and draining shards to empty — are verified
// against a plain-slice reference model after every mutation (Snapshot
// contents, live length, shard-length bookkeeping) with per-shard version
// stamps checked to move exactly on the mutated shard.
func TestShardedDBRandomizedDeleteToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		s := NewShardedDB(64)
		var model []Itemset

		checkState := func(step string) {
			t.Helper()
			if s.Len() != len(model) {
				t.Fatalf("trial %d %s: Len = %d, want %d", trial, step, s.Len(), len(model))
			}
			snap := s.Snapshot()
			if len(snap.Transactions) != len(model) {
				t.Fatalf("trial %d %s: snapshot len = %d, want %d", trial, step, len(snap.Transactions), len(model))
			}
			for i, tx := range model {
				if !snap.Transactions[i].Equal(tx) {
					t.Fatalf("trial %d %s: snapshot[%d] = %v, want %v", trial, step, i, snap.Transactions[i], tx)
				}
			}
			total := 0
			for i := 0; i < s.NumShards(); i++ {
				view, _ := s.ShardView(i)
				if view.Base != total {
					t.Fatalf("trial %d %s: shard %d base = %d, want %d", trial, step, i, view.Base, total)
				}
				total += len(view.Transactions)
			}
			if total != s.Len() {
				t.Fatalf("trial %d %s: shard lengths sum to %d, want %d", trial, step, total, s.Len())
			}
		}

		versions := func() []uint64 {
			out := make([]uint64, s.NumShards())
			for i := range out {
				out[i] = s.Version(i)
			}
			return out
		}

		for step := 0; step < 200; step++ {
			before := versions()
			// Bias towards deletes so shards drain to empty regularly, and
			// towards the tail so "last element of the tail shard" is hit.
			del := s.Len() > 0 && rng.Intn(3) != 0
			if del {
				tid := rng.Intn(s.Len())
				if rng.Intn(2) == 0 {
					tid = s.Len() - 1
				}
				got, err := s.DeleteAt(tid)
				if err != nil {
					t.Fatalf("trial %d: DeleteAt(%d): %v", trial, tid, err)
				}
				if !got.Equal(model[tid]) {
					t.Fatalf("trial %d: DeleteAt(%d) = %v, want %v", trial, tid, got, model[tid])
				}
				model = append(model[:tid:tid], model[tid+1:]...)
			} else {
				n := rng.Intn(4)
				items := make([]int, n)
				for j := range items {
					items[j] = rng.Intn(10)
				}
				if err := s.Append(items...); err != nil {
					t.Fatalf("trial %d: Append: %v", trial, err)
				}
				model = append(model, NewItemset(items...))
			}
			checkState("mutate")
			// Exactly one shard's version may have moved (a fresh tail
			// shard appears with its own first bump).
			after := versions()
			bumps := 0
			for i := range before {
				if after[i] != before[i] {
					bumps++
				}
			}
			if len(after) > len(before) {
				bumps += len(after) - len(before)
			}
			if bumps != 1 {
				t.Fatalf("trial %d: %d shard versions moved in one mutation", trial, bumps)
			}
		}

		// Drain to empty: the store must stay consistent the whole way
		// down and accept appends again afterwards.
		for s.Len() > 0 {
			tid := s.Len() - 1
			if rng.Intn(2) == 0 {
				tid = rng.Intn(s.Len())
			}
			if _, err := s.DeleteAt(tid); err != nil {
				t.Fatalf("trial %d drain: %v", trial, err)
			}
			model = append(model[:tid:tid], model[tid+1:]...)
			checkState("drain")
		}
		if err := s.Append(1, 2, 3); err != nil {
			t.Fatalf("trial %d: append after drain: %v", trial, err)
		}
		model = append(model, NewItemset(1, 2, 3))
		checkState("refill")
		if _, err := s.DeleteAt(s.Len()); err == nil {
			t.Fatalf("trial %d: out-of-range delete accepted", trial)
		}
	}
}

// TestShardedDBJournal pins the journal a maintainer counts its deltas
// from: nothing is recorded until Track, every mutation after it is handed
// out by exactly one Drain with the deleted itemset itself, failed
// mutations leave no trace, and Mutations counts every applied mutation
// whether or not it was journalled.
func TestShardedDBJournal(t *testing.T) {
	s := NewShardedDBFrom(&DB{Transactions: []Itemset{{1, 2}, {2, 3}, {3, 4}}}, 64)
	if s.Mutations() != 3 {
		t.Fatalf("Mutations after a 3-row bulk load = %d, want 3", s.Mutations())
	}
	if err := s.Append(5, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	if added, deleted := s.Drain(); len(added)+len(deleted) != 0 {
		t.Fatalf("untracked store journalled %v / %v", added, deleted)
	}
	if s.Mutations() != 5 {
		t.Fatalf("Mutations = %d, want 5 (untracked mutations still count)", s.Mutations())
	}

	s.Track()
	if err := s.Append(9, 7, 7); err != nil { // normalised to {7, 9}
		t.Fatal(err)
	}
	gone, err := s.DeleteAt(1) // {3, 4}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(8); err != nil {
		t.Fatal(err)
	}
	last, err := s.DeleteAt(s.Len() - 1) // the {8} just appended
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(-1); err == nil {
		t.Fatal("Append(-1) should fail")
	}
	if _, err := s.DeleteAt(s.Len()); err == nil {
		t.Fatal("DeleteAt(len) should fail")
	}
	added, deleted := s.Drain()
	if len(added) != 2 || !added[0].Equal(Itemset{7, 9}) || !added[1].Equal(Itemset{8}) {
		t.Fatalf("journalled appends = %v, want [{7, 9} {8}]", added)
	}
	if len(deleted) != 2 || !deleted[0].Equal(gone) || !gone.Equal(Itemset{3, 4}) ||
		!deleted[1].Equal(last) || !last.Equal(Itemset{8}) {
		t.Fatalf("journalled deletes = %v, want [{3, 4} {8}] (DeleteAt returned %v, %v)", deleted, gone, last)
	}
	if s.Mutations() != 9 {
		t.Fatalf("Mutations = %d, want 9 (failed mutations do not count)", s.Mutations())
	}
	if added, deleted := s.Drain(); len(added)+len(deleted) != 0 {
		t.Fatalf("second Drain handed out %v / %v again", added, deleted)
	}

	// Track restarts the journal; Untrack ends it and drops what it held.
	if err := s.Append(10); err != nil {
		t.Fatal(err)
	}
	s.Track()
	if err := s.Append(11); err != nil {
		t.Fatal(err)
	}
	s.Untrack()
	if err := s.Append(12); err != nil {
		t.Fatal(err)
	}
	if added, deleted := s.Drain(); len(added)+len(deleted) != 0 {
		t.Fatalf("Drain after Untrack = %v / %v, want nothing", added, deleted)
	}
	if s.Mutations() != 12 {
		t.Fatalf("Mutations = %d, want 12", s.Mutations())
	}
}

// TestShardedDBViewsSurviveMutations holds every ShardView and Snapshot
// taken during seeded random runs of appends and deletes — of a shard's
// first row, its last row, a middle row and its last live row — and
// checks at the end that each still reads exactly the itemsets it had
// when it was taken: no mutation writes a slot inside a handed-out slice.
func TestShardedDBViewsSurviveMutations(t *testing.T) {
	type held struct {
		view, want []Itemset
		at         string
	}
	const (
		delFirst = iota
		delLast
		delMiddle
		delLastLive
		numDeleteKinds
	)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewShardedDB(64)
		var views []held
		var deletes [numDeleteKinds]int
		hold := func(view []Itemset, at string) {
			views = append(views, held{view, append([]Itemset(nil), view...), at})
		}
		// deleteIn removes the row of shard i that kind names, if the
		// shard has one.
		deleteIn := func(i, kind int) {
			view, _ := s.ShardView(i)
			n := len(view.Transactions)
			off := 0
			switch {
			case n == 0, kind == delLastLive && n != 1, kind != delLastLive && n == 1:
				return
			case kind == delLast:
				off = n - 1
			case kind == delMiddle:
				if n < 3 {
					return
				}
				off = 1 + rng.Intn(n-2)
			}
			if _, err := s.DeleteAt(view.Base + off); err != nil {
				t.Fatal(err)
			}
			deletes[kind]++
		}
		for step := 0; step < 1500; step++ {
			if s.Len() == 0 || rng.Intn(2) == 0 {
				// Every itemset is unique, so a slot overwritten with any
				// other row shows up.
				if err := s.Append(step, step+1+rng.Intn(4)); err != nil {
					t.Fatal(err)
				}
			} else {
				kind, i := rng.Intn(numDeleteKinds), rng.Intn(s.NumShards())
				if kind == delLastLive {
					// Drain the shard to one row so its last live row goes.
					for view, _ := s.ShardView(i); len(view.Transactions) > 1; view, _ = s.ShardView(i) {
						deleteIn(i, delFirst)
					}
				}
				deleteIn(i, kind)
			}
			if rng.Intn(4) == 0 {
				for i := 0; i < s.NumShards(); i++ {
					view, _ := s.ShardView(i)
					hold(view.Transactions, fmt.Sprintf("seed %d step %d shard %d", seed, step, i))
				}
				hold(s.Snapshot().Transactions, fmt.Sprintf("seed %d step %d snapshot", seed, step))
			}
		}
		for kind, n := range deletes {
			if n == 0 {
				t.Fatalf("seed %d: no delete of kind %d; the run does not cover it", seed, kind)
			}
		}
		for _, h := range views {
			for j := range h.view {
				if !h.view[j].Equal(h.want[j]) {
					t.Fatalf("%s: row %d reads %v, want %v", h.at, j, h.view[j], h.want[j])
				}
			}
		}
	}
}

// TestShardedDBFrontDeleteAllocs: deleting the first row of a full shard
// reslices it and allocates nothing.
func TestShardedDBFrontDeleteAllocs(t *testing.T) {
	s := NewShardedDB(DefaultShardCap)
	for i := 0; i < DefaultShardCap; i++ {
		if err := s.Append(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(DefaultShardCap/2, func() {
		if _, err := s.DeleteAt(0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DeleteAt(0) allocates %.1f times per call, want 0", allocs)
	}
}

// requireShardedStable checks s.AppendStable against the package's
// AppendStable over the rows of Snapshot, after a prefix already in dst, and
// checks the encoding cache it leaves: an emptied shard holds no
// encoding, and every other shard's is exactly sized and stamped with the
// shard's current version.
func requireShardedStable(t *testing.T, step string, s *ShardedDB) {
	t.Helper()
	want, err := AppendStable([]byte("prefix"), s.Snapshot().Transactions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendStable([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ShardedDB.AppendStable wrote %d bytes that differ from AppendStable's %d", step, len(got), len(want))
	}
	for i, sh := range s.shards {
		switch {
		case len(sh.txs) == 0 && sh.enc != nil:
			t.Fatalf("%s: emptied shard %d holds a %d-byte encoding", step, i, len(sh.enc))
		case len(sh.txs) > 0 && (len(sh.enc) != cap(sh.enc) || sh.encVersion != sh.version):
			t.Fatalf("%s: shard %d's encoding has len %d, cap %d, version %d (shard at %d)", step, i, len(sh.enc), cap(sh.enc), sh.encVersion, sh.version)
		}
	}
}

// TestShardedAppendStable runs a seeded script of appends that open new
// shards, first, last and middle deletes, and a shard emptied and then
// refilled, and checks the snapshot bytes and the encoding cache after
// every step.
func TestShardedAppendStable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := NewShardedDB(64)
	requireShardedStable(t, "empty store", s)
	add := func(n int) {
		for range n {
			items := make([]int, 1+rng.Intn(8))
			for j := range items {
				items[j] = rng.Intn(300)
			}
			if err := s.Append(items...); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(tid int) {
		if _, err := s.DeleteAt(tid); err != nil {
			t.Fatal(err)
		}
	}
	add(150) // three shards, the last one partly full
	requireShardedStable(t, "bulk append", s)
	add(1) // into the encoded last shard
	requireShardedStable(t, "append to a cached shard", s)
	add(60) // fills the last shard and opens a fourth
	requireShardedStable(t, "append opening a shard", s)
	for step := range 30 {
		switch step % 3 {
		case 0:
			del(0)
		case 1:
			del(s.Len() - 1)
		default:
			del(1 + rng.Intn(s.Len()-2))
		}
		requireShardedStable(t, fmt.Sprintf("delete %d", step), s)
		if step%5 == 4 {
			add(1 + rng.Intn(3))
			requireShardedStable(t, fmt.Sprintf("append %d", step), s)
		}
	}
	// Empty the second shard from its front, then the last shard from its
	// end, and refill the last one.
	first, _ := s.ShardView(1)
	for range len(first.Transactions) {
		del(first.Base)
	}
	requireShardedStable(t, "second shard emptied", s)
	last := s.NumShards() - 1
	for len(s.shards[last].txs) > 0 {
		del(s.Len() - 1)
	}
	requireShardedStable(t, "last shard emptied", s)
	add(5)
	if s.NumShards() != last+1 || len(s.shards[last].txs) != 5 {
		t.Fatalf("refill opened a shard: %d shards, last holds %d rows", s.NumShards(), len(s.shards[last].txs))
	}
	requireShardedStable(t, "last shard refilled", s)
	for s.Len() > 0 {
		del(rng.Intn(s.Len()))
	}
	requireShardedStable(t, "store emptied", s)
}

// FuzzShardedAppendStable checks ShardedDB.AppendStable against the
// package's AppendStable over an op script read from the fuzz bytes, one
// op a byte b: b%4 == 0 appends a row of the next (b>>2)%8 bytes' items,
// 1 appends b>>2 generated rows (opening shards fast), 2 deletes at the
// position b>>2 scales to (0 the first row, 63 the last), and 3 checks.
func FuzzShardedAppendStable(f *testing.F) {
	f.Add([]byte{253, 3, 2, 3, 254, 3, 0x0c, 1, 2, 3, 3})
	f.Add([]byte{253, 253, 3, 2, 2, 2, 2, 3, 66, 130, 3, 1, 3})
	f.Add([]byte{41, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 5, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewShardedDB(64)
		for i := 0; i < len(script); i++ {
			b := script[i]
			switch b % 4 {
			case 0:
				var items []int
				for n := int(b>>2) % 8; n > 0 && i+1 < len(script); n-- {
					i++
					items = append(items, int(script[i]))
				}
				if err := s.Append(items...); err != nil {
					t.Fatal(err)
				}
			case 1:
				for j := range int(b >> 2) {
					if err := s.Append(j%13, 13+(i+j)%29, 50+j%7); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if s.Len() > 0 {
					if _, err := s.DeleteAt(int(b>>2) * (s.Len() - 1) / 63); err != nil {
						t.Fatal(err)
					}
				}
			default:
				requireShardedStable(t, fmt.Sprintf("op %d", i), s)
			}
		}
		requireShardedStable(t, "end", s)
	})
}
