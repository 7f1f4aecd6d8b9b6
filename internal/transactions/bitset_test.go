package transactions

import (
	"math/rand"
	"slices"
	"testing"
)

// bitsetFrom returns the bitset over [0, len(member)) whose set bits are
// the members.
func bitsetFrom(member []bool) *Bitset {
	b := NewBitset(len(member))
	for i, in := range member {
		if in {
			b.Set(i)
		}
	}
	return b
}

// sameBits reports whether a and b address the same bits and set the
// same ones.
func sameBits(a, b *Bitset) bool {
	return a.n == b.n && slices.Equal(a.words, b.words)
}

func randomMembers(rng *rand.Rand, n int) []bool {
	member := make([]bool, n)
	for i := 0; i < n/4+1; i++ {
		member[rng.Intn(n)] = true
	}
	return member
}

func TestBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		want := make([]bool, n)
		ones := 0
		b := NewBitset(n)
		for i := 0; i < n/3+1; i++ {
			tid := rng.Intn(n)
			if !want[tid] {
				want[tid] = true
				ones++
			}
			b.Set(tid)
		}
		if got := b.OnesCount(); got != ones {
			t.Fatalf("OnesCount=%d want %d", got, ones)
		}
		// Bit i is set exactly when it meets a one-bit bitset at i.
		for i := range want {
			one := NewBitset(n)
			one.Set(i)
			if got := AndCount(b, one) == 1; got != want[i] {
				t.Fatalf("bit %d set = %v after Set, want %v", i, got, want[i])
			}
			if b.Has(i) != want[i] {
				t.Fatalf("Has(%d) = %v, want %v", i, b.Has(i), want[i])
			}
		}
	}
}

func TestBitsetAndMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(200)
		a, b := randomMembers(rng, n), randomMembers(rng, n)
		both := make([]bool, n)
		want := 0
		for i := range both {
			both[i] = a[i] && b[i]
			if both[i] {
				want++
			}
		}

		ba, bb := bitsetFrom(a), bitsetFrom(b)
		if got := AndCount(ba, bb); got != want {
			t.Fatalf("AndCount=%d want %d", got, want)
		}
		out := AndBitset(ba, bb)
		if !sameBits(out, bitsetFrom(both)) {
			t.Fatalf("AndBitset differs from the brute-force intersection")
		}
		if out.OnesCount() != want {
			t.Fatalf("OnesCount=%d want %d", out.OnesCount(), want)
		}
		// ba must be untouched by AndBitset.
		if !sameBits(ba, bitsetFrom(a)) {
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
		t.Fatalf("out-of-range Has reported a set bit")
	}
	empty := NewBitset(0)
	if empty.OnesCount() != 0 || empty.Len() != 0 {
		t.Fatalf("empty bitset misbehaves")
	}
}

func TestToVerticalBitsetMatchesContains(t *testing.T) {
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
	vb := db.ToVerticalBitset()
	if vb.NumTx != db.Len() {
		t.Fatalf("NumTx=%d want %d", vb.NumTx, db.Len())
	}
	present := 0
	for item := 0; item < 12; item++ {
		member := make([]bool, db.Len())
		found := false
		for tid, tx := range db.Transactions {
			member[tid] = slices.Contains(tx, item)
			found = found || member[tid]
		}
		bits, ok := vb.Bits[item]
		if ok != found {
			t.Fatalf("item %d: in bitset layout = %v, in some transaction = %v", item, ok, found)
		}
		if !found {
			continue
		}
		present++
		if !sameBits(bits, bitsetFrom(member)) {
			t.Fatalf("item %d: bitset differs from the transactions containing it", item)
		}
	}
	if len(vb.Bits) != present {
		t.Fatalf("%d items in bitset layout, %d in the transactions", len(vb.Bits), present)
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

// BenchmarkIntersectBitset times one intersection of two dense bitset
// tid-sets — the kernel Eclat joins with.
func BenchmarkIntersectBitset(b *testing.B) {
	const n = 100000
	bx, by := NewBitset(n), NewBitset(n)
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			bx.Set(i)
		}
		if i%8 == 2 || i%16 == 0 {
			by.Set(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndBitset(bx, by)
	}
}
