package transactions

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
)

func TestNewItemsetSortsAndDedups(t *testing.T) {
	s := NewItemset(3, 1, 2, 3, 1)
	want := Itemset{1, 2, 3}
	if !s.Equal(want) {
		t.Errorf("NewItemset = %v, want %v", s, want)
	}
}

func TestContainsAll(t *testing.T) {
	s := NewItemset(1, 2, 3, 5, 8)
	tests := []struct {
		sub  Itemset
		want bool
	}{
		{NewItemset(), true},
		{NewItemset(1), true},
		{NewItemset(2, 5), true},
		{NewItemset(1, 2, 3, 5, 8), true},
		{NewItemset(4), false},
		{NewItemset(1, 4), false},
		{NewItemset(8, 9), false},
	}
	for _, tt := range tests {
		if got := s.ContainsAll(tt.sub); got != tt.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", tt.sub, got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Itemset
		want int
	}{
		{NewItemset(1, 2), NewItemset(1, 2), 0},
		{NewItemset(1, 2), NewItemset(1, 3), -1},
		{NewItemset(1, 3), NewItemset(1, 2), 1},
		{NewItemset(1), NewItemset(1, 2), -1},
		{NewItemset(1, 2), NewItemset(1), 1},
		{NewItemset(), NewItemset(), 0},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestUnion(t *testing.T) {
	a := NewItemset(1, 3, 5)
	b := NewItemset(2, 3, 6)
	if got := a.Union(b); !got.Equal(NewItemset(1, 2, 3, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
}

func TestKeyString(t *testing.T) {
	s := NewItemset(5, 1, 3)
	if got := s.Key(); got != "1,3,5" {
		t.Errorf("Key = %q", got)
	}
	if got := s.String(); got != "{1, 3, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := NewItemset().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// TestKeyAllocatesOnce pins Key at one allocation (the returned string)
// for itemsets of multi-digit ids, the shape every string-keyed lookup of
// the maintainer and Canonical pays per itemset.
func TestKeyAllocatesOnce(t *testing.T) {
	s := NewItemset(7, 120, 4031, 99999, 100000)
	if got := s.Key(); got != "7,120,4031,99999,100000" {
		t.Fatalf("Key = %q", got)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = s.Key() }); n != 1 {
		t.Errorf("Key allocated %v times per call, want 1", n)
	}
	_ = sink
	if got := (Itemset{}).Key(); got != "" {
		t.Errorf("empty Key = %q", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewItemset(1, 2)
	b := a.Clone()
	b[0] = 9
	if a[0] == 9 {
		t.Error("Clone shares storage")
	}
}

func TestDBAddAndSupport(t *testing.T) {
	db := NewDB()
	mustAdd(t, db, 1, 2, 3)
	mustAdd(t, db, 2, 3)
	mustAdd(t, db, 1, 3)
	mustAdd(t, db, 3)
	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.NumItems() != 4 {
		t.Errorf("NumItems = %d, want 4", db.NumItems())
	}
	tests := []struct {
		set  Itemset
		want int
	}{
		{NewItemset(3), 4},
		{NewItemset(1), 2},
		{NewItemset(2, 3), 2},
		{NewItemset(1, 2, 3), 1},
		{NewItemset(9), 0},
		{NewItemset(), 4},
	}
	for _, tt := range tests {
		if got := oracle.Support(db.Transactions, tt.set); got != tt.want {
			t.Errorf("Support(%v) = %d, want %d", tt.set, got, tt.want)
		}
	}
}

func mustAdd(t *testing.T, db *DB, items ...int) {
	t.Helper()
	if err := db.Add(items...); err != nil {
		t.Fatal(err)
	}
}

func TestDBAddNegative(t *testing.T) {
	db := NewDB()
	if err := db.Add(1, -2); !errors.Is(err, ErrNegativeItem) {
		t.Errorf("negative item error = %v", err)
	}
}

func TestAbsoluteSupport(t *testing.T) {
	db := NewDB()
	for i := 0; i < 100; i++ {
		mustAdd(t, db, i)
	}
	tests := []struct {
		rel  float64
		want int
	}{
		{0.01, 1}, {0.5, 50}, {0.005, 1}, {1, 100}, {0.015, 2},
	}
	for _, tt := range tests {
		if got := db.AbsoluteSupport(tt.rel); got != tt.want {
			t.Errorf("AbsoluteSupport(%v) = %d, want %d", tt.rel, got, tt.want)
		}
	}
}

func TestReadWriteBasket(t *testing.T) {
	in := "1 2 3\n\n# comment\n2 3\n5\n"
	db, err := ReadBasket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	var sb strings.Builder
	if err := db.WriteBasket(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBasket(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip Len = %d", back.Len())
	}
	for i := range db.Transactions {
		if !db.Transactions[i].Equal(back.Transactions[i]) {
			t.Errorf("tx %d: %v != %v", i, db.Transactions[i], back.Transactions[i])
		}
	}
}

func TestReadBasketErrors(t *testing.T) {
	if _, err := ReadBasket(strings.NewReader("1 x 3\n")); err == nil {
		t.Error("non-integer should error")
	}
	if _, err := ReadBasket(strings.NewReader("1 -2\n")); !errors.Is(err, ErrNegativeItem) {
		t.Errorf("negative error = %v", err)
	}
}

// Property: NewItemset always yields a sorted, duplicate-free set
// containing exactly the input values.
func TestNewItemsetProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		items := make([]int, len(raw))
		for i, v := range raw {
			items[i] = int(v)
		}
		s := NewItemset(items...)
		if !sort.IntsAreSorted(s) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		for _, v := range items {
			if !slices.Contains(s, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ContainsAll agrees with a naive map-based subset test.
func TestContainsAllProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := make([]int, len(aRaw))
		for i, v := range aRaw {
			a[i] = int(v % 32)
		}
		b := make([]int, len(bRaw))
		for i, v := range bRaw {
			b[i] = int(v % 32)
		}
		sa, sb := NewItemset(a...), NewItemset(b...)
		naive := true
		m := make(map[int]bool)
		for _, v := range sa {
			m[v] = true
		}
		for _, v := range sb {
			if !m[v] {
				naive = false
				break
			}
		}
		return sa.ContainsAll(sb) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the popcount of two items' tid-set intersection is the
// support of the pair.
func TestVerticalSupportProperty(t *testing.T) {
	f := func(txRaw [][3]uint8) bool {
		if len(txRaw) == 0 || len(txRaw) > 50 {
			return true
		}
		db := NewDB()
		for _, tx := range txRaw {
			items := []int{int(tx[0] % 8), int(tx[1] % 8), int(tx[2] % 8)}
			if err := db.Add(items...); err != nil {
				return false
			}
		}
		v := db.ToVerticalBitset()
		tids := func(item int) *Bitset {
			if bits, ok := v.Bits[item]; ok {
				return bits
			}
			return NewBitset(v.NumTx)
		}
		// Pairwise: |tids(a) ∩ tids(b)| == Support({a,b}).
		for a := 0; a < 8; a++ {
			for b := a + 1; b < 8; b++ {
				got := AndCount(tids(a), tids(b))
				want := oracle.Support(db.Transactions, []int{a, b})
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCountKernels pins the pass-1 and pass-2 kernels against Support:
// TriIndex tiles the triangle exactly once, TriBases lays the same
// triangle out by row bases, and CountPairs counts every pair of ranked
// items while skipping unranked ones and items beyond the rank table (a
// replica can hold items the table was never sized for).
func TestCountKernels(t *testing.T) {
	for n := 0; n <= 64; n++ {
		seen := make([]bool, n*(n-1)/2)
		base := TriBases(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				idx := TriIndex(n, i, j)
				if seen[idx] {
					t.Fatalf("TriIndex(%d, %d, %d) = %d collides", n, i, j, idx)
				}
				seen[idx] = true
				if got := base[i] + j; got != idx {
					t.Fatalf("n=%d: base[%d]+%d = %d, want TriIndex %d", n, i, j, got, idx)
				}
			}
		}
	}

	db := NewDB()
	for _, tx := range [][]int{{0, 1, 2, 7}, {1, 2, 3}, {0, 2, 9}, {2}, {1, 3, 8}} {
		if err := db.Add(tx...); err != nil {
			t.Fatal(err)
		}
	}
	checkCountKernels(t, db, []int{0, 1, 2, -1, -1, -1, -1, 3}) // items 8 and 9 lie beyond the table

	// Random runs: a third of the table's items unranked, and a universe
	// twice the table's length.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		db := NewDB()
		for i := 0; i < 200; i++ {
			tx := make([]int, rng.Intn(12))
			for k := range tx {
				tx[k] = rng.Intn(60)
			}
			if err := db.Add(tx...); err != nil {
				t.Fatal(err)
			}
		}
		rank := make([]int, 30)
		r := 0
		for item := range rank {
			rank[item] = -1
			if rng.Intn(3) > 0 {
				rank[item] = r
				r++
			}
		}
		checkCountKernels(t, db, rank)
	}
}

// checkCountKernels counts db with CountItems and CountPairs under rank
// and compares every counter with Support.
func checkCountKernels(t *testing.T, db *DB, rank []int) {
	t.Helper()
	var ranked []int // rank -> item
	for item, r := range rank {
		if r >= 0 {
			ranked = append(ranked, item)
		}
	}
	n := len(ranked)
	items := make([]int32, db.NumItems())
	pairs := make([]int32, n*(n-1)/2)
	base := TriBases(n)
	var scratch []int
	for _, tx := range db.Transactions {
		CountItems(tx, items)
		scratch = CountPairs(tx, rank, base, 0, len(base), pairs, scratch)
	}
	for item, got := range items {
		if want := oracle.Support(db.Transactions, []int{item}); int(got) != want {
			t.Errorf("CountItems: item %d = %d, want %d", item, got, want)
		}
	}
	for i, a := range ranked {
		for j := i + 1; j < n; j++ {
			got, want := pairs[TriIndex(n, i, j)], oracle.Support(db.Transactions, []int{a, ranked[j]})
			if int(got) != want {
				t.Errorf("CountPairs: {%d,%d} = %d, want %d", a, ranked[j], got, want)
			}
		}
	}
}

// TestCheckRoom pins the store-size guard at its edge: a store of
// math.MaxInt32-1 rows takes one more, and one of math.MaxInt32 rows or
// more refuses with ErrTooManyTransactions.
func TestCheckRoom(t *testing.T) {
	for _, tc := range []struct {
		rows int
		full bool
	}{
		{0, false},
		{math.MaxInt32 - 1, false},
		{math.MaxInt32, true},
		{math.MaxInt32 + 1, true},
	} {
		err := checkRoom(tc.rows)
		if got := errors.Is(err, ErrTooManyTransactions); got != tc.full {
			t.Errorf("checkRoom(%d) = %v, want full=%v", tc.rows, err, tc.full)
		}
	}
}
