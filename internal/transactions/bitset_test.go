package transactions

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		want := map[int]bool{}
		b := NewBitset(n)
		for i := 0; i < n/3+1; i++ {
			tid := rng.Intn(n)
			want[tid] = true
			b.Set(tid)
		}
		if got := b.OnesCount(); got != len(want) {
			t.Fatalf("OnesCount=%d want %d", got, len(want))
		}
		var tids []int
		tids = b.AppendTIDs(tids)
		if len(tids) != len(want) {
			t.Fatalf("AppendTIDs returned %d tids, want %d", len(tids), len(want))
		}
		for i, tid := range tids {
			if !want[tid] {
				t.Fatalf("unexpected tid %d", tid)
			}
			if i > 0 && tids[i-1] >= tid {
				t.Fatalf("tids not strictly ascending: %v", tids)
			}
			if !b.Has(tid) {
				t.Fatalf("Has(%d)=false after Set", tid)
			}
		}
	}
}

func TestBitsetAndMatchesIntersectSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(200)
		a := randomTIDs(rng, n)
		b := randomTIDs(rng, n)
		want := IntersectSorted(a, b)

		ba, bb := BitsetFromTIDs(a, n), BitsetFromTIDs(b, n)
		if got := AndCount(ba, bb); got != len(want) {
			t.Fatalf("AndCount=%d want %d", got, len(want))
		}
		out := AndBitset(ba, bb)
		if got := out.AppendTIDs(nil); !sameInts(got, want) {
			t.Fatalf("AndBitset tids=%v want %v", got, want)
		}
		if out.OnesCount() != len(want) {
			t.Fatalf("OnesCount=%d want %d", out.OnesCount(), len(want))
		}
		// In-place And must agree and report the popcount.
		cp := ba.Clone()
		if sup := cp.And(bb); sup != len(want) {
			t.Fatalf("And returned %d want %d", sup, len(want))
		}
		if got := cp.AppendTIDs(nil); !sameInts(got, want) {
			t.Fatalf("in-place And tids=%v want %v", got, want)
		}
		// ba must be untouched by AndBitset.
		if got := ba.AppendTIDs(nil); !sameInts(got, a) {
			t.Fatalf("AndBitset mutated its input")
		}
	}
}

func TestBitsetBounds(t *testing.T) {
	b := NewBitset(10)
	b.Set(-1)
	b.Set(10)
	if b.OnesCount() != 0 {
		t.Fatalf("out-of-range Set changed the bitset")
	}
	if b.Has(-1) || b.Has(10) {
		t.Fatalf("out-of-range Has returned true")
	}
	empty := NewBitset(0)
	if empty.OnesCount() != 0 || empty.Len() != 0 {
		t.Fatalf("empty bitset misbehaves")
	}
}

func TestToVerticalBitsetMatchesVertical(t *testing.T) {
	db := NewDB()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		items := make([]int, 1+rng.Intn(6))
		for j := range items {
			items[j] = rng.Intn(12)
		}
		if err := db.Add(items...); err != nil {
			t.Fatal(err)
		}
	}
	vert := db.ToVertical()
	vb := db.ToVerticalBitset()
	if vb.NumTx != vert.NumTx {
		t.Fatalf("NumTx=%d want %d", vb.NumTx, vert.NumTx)
	}
	if len(vb.Bits) != len(vert.TIDLists) {
		t.Fatalf("%d items in bitset layout, %d in tid-list layout", len(vb.Bits), len(vert.TIDLists))
	}
	for item, tids := range vert.TIDLists {
		got := vb.Bits[item].AppendTIDs(nil)
		if !sameInts(got, tids) {
			t.Fatalf("item %d: bitset tids %v want %v", item, got, tids)
		}
	}
}

func TestShards(t *testing.T) {
	db := NewDB()
	for i := 0; i < 10; i++ {
		if err := db.Add(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{-1, 0, 1, 2, 3, 7, 10, 25} {
		shards := db.Shards(n)
		wantShards := n
		if wantShards < 1 {
			wantShards = 1
		}
		if wantShards > db.Len() {
			wantShards = db.Len()
		}
		if len(shards) != wantShards {
			t.Fatalf("Shards(%d) returned %d shards, want %d", n, len(shards), wantShards)
		}
		// Shards must tile the database exactly, in order, with correct bases.
		next := 0
		for _, sh := range shards {
			if sh.Base != next {
				t.Fatalf("Shards(%d): base %d want %d", n, sh.Base, next)
			}
			if len(sh.Transactions) == 0 {
				t.Fatalf("Shards(%d): empty shard", n)
			}
			for i, tx := range sh.Transactions {
				if !tx.Equal(db.Transactions[sh.Base+i]) {
					t.Fatalf("Shards(%d): tx mismatch at global tid %d", n, sh.Base+i)
				}
			}
			next += len(sh.Transactions)
		}
		if next != db.Len() {
			t.Fatalf("Shards(%d) covered %d transactions, want %d", n, next, db.Len())
		}
	}
	if got := NewDB().Shards(4); got != nil {
		t.Fatalf("empty DB shards = %v, want nil", got)
	}
}

func randomTIDs(rng *rand.Rand, n int) []int {
	set := map[int]bool{}
	for i := 0; i < n/4+1; i++ {
		set[rng.Intn(n)] = true
	}
	out := make([]int, 0, len(set))
	for tid := range set {
		out = append(out, tid)
	}
	// IntersectSorted needs ascending input.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// BenchmarkIntersectBitset times one intersection of two dense bitset
// tid-sets — the kernel Eclat joins with.
func BenchmarkIntersectBitset(b *testing.B) {
	const n = 100000
	var x, y []int
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			x = append(x, i)
		}
		if i%8 == 2 || i%16 == 0 {
			y = append(y, i)
		}
	}
	bx, by := BitsetFromTIDs(x, n), BitsetFromTIDs(y, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndBitset(bx, by)
	}
}
