package transactions

import (
	"math/rand"
	"testing"
)

func TestShardedDBCapNormalisation(t *testing.T) {
	if got := NewShardedDB(0).ShardCap(); got != DefaultShardCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultShardCap)
	}
	if got := NewShardedDB(100).ShardCap(); got != 128 {
		t.Fatalf("cap 100 normalised to %d, want 128", got)
	}
	if got := NewShardedDB(64).ShardCap(); got != 64 {
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

func TestConcatBitsetsAligned(t *testing.T) {
	a := NewBitset(128)
	b := NewBitset(64)
	c := NewBitset(30)
	for _, i := range []int{0, 63, 64, 127} {
		a.Set(i)
	}
	b.Set(5)
	c.Set(29)
	out := ConcatBitsets(a, b, c)
	if out.Len() != 222 {
		t.Fatalf("len=%d, want 222", out.Len())
	}
	want := NewBitset(222)
	for _, i := range []int{0, 63, 64, 127, 128 + 5, 192 + 29} {
		want.Set(i)
	}
	if !sameBits(out, want) {
		t.Fatalf("concat sets %d bits, want %d at the shifted offsets", out.OnesCount(), want.OnesCount())
	}
}

func TestConcatBitsetsUnaligned(t *testing.T) {
	// First part ends mid-word: the tail must be shifted, not word-copied.
	a := NewBitset(10)
	b := NewBitset(100)
	a.Set(9)
	b.Set(0)
	b.Set(99)
	out := ConcatBitsets(a, b)
	if out.Len() != 110 {
		t.Fatalf("len=%d, want 110", out.Len())
	}
	want := NewBitset(110)
	for _, i := range []int{9, 10, 109} {
		want.Set(i)
	}
	if !sameBits(out, want) {
		t.Fatalf("concat sets %d bits, want bits 9, 10 and 109", out.OnesCount())
	}
}

func TestConcatBitsetsEmptyParts(t *testing.T) {
	// Empty shard views happen in practice: deletes can empty a shard, and
	// ShardedDB.ToVerticalBitset pads items with zero-length parts. Empty
	// parts must contribute nothing and shift nothing.
	empty := NewBitset(0)
	if out := ConcatBitsets(); out.Len() != 0 || out.OnesCount() != 0 {
		t.Fatalf("concat of nothing: len=%d popcount=%d", out.Len(), out.OnesCount())
	}
	if out := ConcatBitsets(empty, empty); out.Len() != 0 || out.OnesCount() != 0 {
		t.Fatalf("concat of empties: len=%d popcount=%d", out.Len(), out.OnesCount())
	}
	a := NewBitset(70)
	a.Set(0)
	a.Set(69)
	for _, parts := range [][]*Bitset{
		{empty, a},
		{a, empty},
		{empty, a, empty},
	} {
		out := ConcatBitsets(parts...)
		if !sameBits(out, a) {
			t.Fatalf("concat with empty parts: len=%d popcount=%d", out.Len(), out.OnesCount())
		}
	}
}

func TestConcatBitsetsSingleShard(t *testing.T) {
	// One part: the concat must be a faithful copy, not an alias.
	a := NewBitset(130)
	for _, i := range []int{0, 64, 129} {
		a.Set(i)
	}
	out := ConcatBitsets(a)
	if out.Len() != a.Len() || out.OnesCount() != a.OnesCount() {
		t.Fatalf("single-part concat: len=%d popcount=%d", out.Len(), out.OnesCount())
	}
	out.Set(1)
	if a.OnesCount() != 3 {
		t.Fatal("single-part concat aliases its input")
	}
}

func TestConcatBitsetsWordBoundaryCaps(t *testing.T) {
	// Non-power-of-two shard caps that are still multiples of 64 (the
	// ShardedDB invariant — e.g. shardCap 192) must take the word-copy path and
	// agree bit-for-bit with a brute-force rebuild, including bits at the
	// first/last slot of every word boundary.
	for _, shardCap := range []int{64, 192, 320} {
		nParts := 3
		parts := make([]*Bitset, nParts)
		var wantBits []int
		for p := 0; p < nParts; p++ {
			b := NewBitset(shardCap)
			for _, off := range []int{0, 1, 63, 64, shardCap - 65, shardCap - 64, shardCap - 1} {
				if off >= 0 && off < shardCap {
					b.Set(off)
					wantBits = append(wantBits, p*shardCap+off)
				}
			}
			parts[p] = b
		}
		out := ConcatBitsets(parts...)
		if out.Len() != nParts*shardCap {
			t.Fatalf("shardCap %d: len=%d, want %d", shardCap, out.Len(), nParts*shardCap)
		}
		want := NewBitset(nParts * shardCap)
		for _, i := range wantBits {
			want.Set(i)
		}
		if !sameBits(out, want) {
			t.Fatalf("shardCap %d: popcount=%d, want %d at the same bits", shardCap, out.OnesCount(), want.OnesCount())
		}
	}
	// A word-multiple part followed by a short tail (the live last shard):
	// only the tail may sit past a word boundary.
	a := NewBitset(192)
	a.Set(191)
	tail := NewBitset(17)
	tail.Set(16)
	out := ConcatBitsets(a, tail)
	want := NewBitset(209)
	want.Set(191)
	want.Set(192 + 16)
	if !sameBits(out, want) {
		t.Fatalf("word-multiple + tail: len=%d popcount=%d", out.Len(), out.OnesCount())
	}
}

func TestShardedDBToVerticalBitset(t *testing.T) {
	// The word-aligned per-shard concatenation must reproduce the plain
	// whole-database vertical bitset view — including items that first
	// appear mid-stream (earlier shards need empty padding), items absent
	// from later shards, and shards left unaligned by deletes.
	s := NewShardedDB(64)
	for i := 0; i < 150; i++ {
		_ = s.Append(i%5, (i*3)%5)
	}
	for i := 0; i < 20; i++ {
		_ = s.Append(7) // item 7 first appears in the last shard
	}
	if _, err := s.DeleteAt(30); err != nil { // shard 0 now unaligned
		t.Fatal(err)
	}
	got := s.ToVerticalBitset()
	want := s.Snapshot().ToVerticalBitset()
	if got.NumTx != want.NumTx {
		t.Fatalf("NumTx = %d, want %d", got.NumTx, want.NumTx)
	}
	if len(got.Bits) != len(want.Bits) {
		t.Fatalf("items = %d, want %d", len(got.Bits), len(want.Bits))
	}
	for item, wantBits := range want.Bits {
		gotBits := got.Bits[item]
		if gotBits == nil {
			t.Fatalf("item %d missing", item)
		}
		if !sameBits(gotBits, wantBits) {
			t.Fatalf("item %d: len/popcount %d/%d != %d/%d",
				item, gotBits.Len(), gotBits.OnesCount(), wantBits.Len(), wantBits.OnesCount())
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

// TestShardedDBVerticalBitsetWithEmptyShards pins ToVerticalBitset after
// shards drain to empty: the word-aligned concat must keep matching the
// snapshot's vertical layout even when interior shards hold no
// transactions.
func TestShardedDBVerticalBitsetWithEmptyShards(t *testing.T) {
	s := NewShardedDB(64)
	for i := 0; i < 200; i++ {
		if err := s.Append(i%5, 5+i%3); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the middle shard (global ids 64..127) completely.
	for i := 0; i < 64; i++ {
		if _, err := s.DeleteAt(64); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ToVerticalBitset()
	want := s.Snapshot().ToVerticalBitset()
	if got.NumTx != want.NumTx {
		t.Fatalf("NumTx = %d, want %d", got.NumTx, want.NumTx)
	}
	if len(got.Bits) != len(want.Bits) {
		t.Fatalf("items = %d, want %d", len(got.Bits), len(want.Bits))
	}
	for item, wb := range want.Bits {
		gb, ok := got.Bits[item]
		if !ok {
			t.Fatalf("item %d missing", item)
		}
		if !sameBits(gb, wb) {
			t.Fatalf("item %d: count %d, want %d at the same tids", item, gb.OnesCount(), wb.OnesCount())
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
