package hashtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/transactions"
)

// ID returns the entry's insertion rank, in [0, Tree.Len()).
func (e *Entry) ID() int { return e.id }

// count returns e's support as CountTransaction has counted it.
func (t *Tree) count(e *Entry) int { return int(t.Counts()[e.id]) }

// Entries appends all stored entries to dst in tree order and returns it.
func (t *Tree) Entries(dst []*Entry) []*Entry { return collect(t.root, dst) }

func collect(n *node, dst []*Entry) []*Entry {
	if n == nil {
		return dst
	}
	if n.children == nil {
		return append(dst, n.entries...)
	}
	for _, c := range n.children {
		dst = collect(c, dst)
	}
	return dst
}

// EntriesByID returns the stored entries in insertion order.
func (t *Tree) EntriesByID() []*Entry {
	out := make([]*Entry, t.size)
	for _, e := range t.Entries(nil) {
		out[e.id] = e
	}
	return out
}

func TestInsertAndLen(t *testing.T) {
	tr := New(2)
	if _, err := tr.Insert(transactions.NewItemset(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(transactions.NewItemset(1, 3)); err != nil {
		t.Fatal(err)
	}
	if tr.size != 2 {
		t.Errorf("size = %d", tr.size)
	}
	if tr.k != 2 {
		t.Errorf("k = %d", tr.k)
	}
	if _, err := tr.Insert(transactions.NewItemset(1, 2, 3)); !errors.Is(err, ErrWrongLength) {
		t.Errorf("wrong-length error = %v", err)
	}
}

func TestNewWithParamsValidation(t *testing.T) {
	if _, err := newWithParams(2, 0, 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("fanout=0 error = %v", err)
	}
	if _, err := newWithParams(2, 4, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("leaf=0 error = %v", err)
	}
	if _, err := newWithParams(0, 4, 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=0 error = %v", err)
	}
}

func TestCountSimple(t *testing.T) {
	tr := New(2)
	e12, _ := tr.Insert(transactions.NewItemset(1, 2))
	e13, _ := tr.Insert(transactions.NewItemset(1, 3))
	e24, _ := tr.Insert(transactions.NewItemset(2, 4))

	txs := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(1, 2),
		transactions.NewItemset(2, 4, 5),
		transactions.NewItemset(3),
	}
	for tid, tx := range txs {
		tr.CountTransaction(tx, tid)
	}
	if tr.count(e12) != 2 {
		t.Errorf("{1,2} count = %d, want 2", tr.count(e12))
	}
	if tr.count(e13) != 1 {
		t.Errorf("{1,3} count = %d, want 1", tr.count(e13))
	}
	if tr.count(e24) != 1 {
		t.Errorf("{2,4} count = %d, want 1", tr.count(e24))
	}
}

func TestCountShortTransactionSkipped(t *testing.T) {
	tr := New(3)
	e, _ := tr.Insert(transactions.NewItemset(1, 2, 3))
	tr.CountTransaction(transactions.NewItemset(1, 2), 0)
	if c := tr.count(e); c != 0 {
		t.Errorf("count = %d, want 0", c)
	}
}

func TestLeafSplitStillCorrect(t *testing.T) {
	// Force splits with a tiny leaf capacity and verify counts against
	// brute force.
	tr, err := newWithParams(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cands []transactions.Itemset
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			c := transactions.NewItemset(a, b)
			cands = append(cands, c)
			if _, err := tr.Insert(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var txs []transactions.Itemset
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(6)
		items := make([]int, n)
		for j := range items {
			items[j] = rng.Intn(8)
		}
		txs = append(txs, transactions.NewItemset(items...))
	}
	for tid, tx := range txs {
		tr.CountTransaction(tx, tid)
	}
	want := make(map[string]int)
	for _, c := range cands {
		for _, tx := range txs {
			if tx.ContainsAll(c) {
				want[c.Key()]++
			}
		}
	}
	for _, e := range tr.Entries(nil) {
		if c := tr.count(e); c != want[e.Items.Key()] {
			t.Errorf("candidate %v count = %d, want %d", e.Items, c, want[e.Items.Key()])
		}
	}
}

func TestNoDoubleCountAcrossHashCollisions(t *testing.T) {
	// Fanout 2 forces heavy collisions; items 1 and 3 share hash, so a
	// transaction with both could reach the same leaf twice.
	tr, err := newWithParams(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := tr.Insert(transactions.NewItemset(1, 3))
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if a == 1 && b == 3 {
				continue
			}
			if _, err := tr.Insert(transactions.NewItemset(a, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.CountTransaction(transactions.NewItemset(1, 3, 5), 7)
	if c := tr.count(e); c != 1 {
		t.Errorf("{1,3} counted %d times in one transaction, want 1", c)
	}
}

func TestEntriesReturnsAll(t *testing.T) {
	tr, _ := newWithParams(3, 4, 2)
	keys := map[string]bool{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		a, b, c := rng.Intn(30), rng.Intn(30), rng.Intn(30)
		s := transactions.NewItemset(a, b, c)
		if len(s) != 3 || keys[s.Key()] {
			continue
		}
		keys[s.Key()] = true
		if _, err := tr.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.Entries(nil)
	if len(got) != len(keys) {
		t.Fatalf("Entries len = %d, want %d", len(got), len(keys))
	}
	for _, e := range got {
		if !keys[e.Items.Key()] {
			t.Errorf("unexpected entry %v", e.Items)
		}
	}
}

// Property: hash-tree counting agrees with brute-force subset counting for
// random candidate sets and transactions, across parameter settings.
func TestCountMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, fanoutRaw, leafRaw uint8) bool {
		fanout := int(fanoutRaw%7) + 1
		maxLeaf := int(leafRaw%5) + 1
		local := rand.New(rand.NewSource(seed))
		k := 1 + local.Intn(3)
		tr, err := newWithParams(k, fanout, maxLeaf)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		var cands []transactions.Itemset
		for i := 0; i < 30; i++ {
			items := make([]int, k)
			for j := range items {
				items[j] = local.Intn(12)
			}
			s := transactions.NewItemset(items...)
			if len(s) != k || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cands = append(cands, s)
			if _, err := tr.Insert(s); err != nil {
				return false
			}
		}
		var txs []transactions.Itemset
		for i := 0; i < 30; i++ {
			n := 1 + local.Intn(8)
			items := make([]int, n)
			for j := range items {
				items[j] = local.Intn(12)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		for tid, tx := range txs {
			tr.CountTransaction(tx, tid)
		}
		want := map[string]int{}
		for _, c := range cands {
			for _, tx := range txs {
				if tx.ContainsAll(c) {
					want[c.Key()]++
				}
			}
		}
		for _, e := range tr.Entries(nil) {
			if tr.count(e) != want[e.Items.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEntriesSortable(t *testing.T) {
	tr := New(1)
	for _, v := range []int{5, 1, 3} {
		if _, err := tr.Insert(transactions.NewItemset(v)); err != nil {
			t.Fatal(err)
		}
	}
	es := tr.Entries(nil)
	sort.Slice(es, func(i, j int) bool { return es[i].Items.Compare(es[j].Items) < 0 })
	if es[0].Items[0] != 1 || es[2].Items[0] != 5 {
		t.Errorf("sorted entries = %v", es)
	}
}

// Regression: the duplicate-count guard must not confuse its zero value
// with transaction id 0 — tid 0 has to be counted on the very first leaf
// visit, including through leaves reachable along several hash paths.
func TestTransactionZeroCounted(t *testing.T) {
	tr, err := newWithParams(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Items 0 and 2 collide under fanout 2, so the leaf holding {0,2} is
	// reachable twice from the root for a transaction containing both.
	e, _ := tr.Insert(transactions.NewItemset(0, 2))
	if _, err := tr.Insert(transactions.NewItemset(1, 3)); err != nil {
		t.Fatal(err)
	}
	tr.CountTransaction(transactions.NewItemset(0, 2, 4), 0)
	if c := tr.count(e); c != 1 {
		t.Fatalf("tid 0: {0,2} count = %d, want 1", c)
	}
	// The guard must still admit the next transaction.
	tr.CountTransaction(transactions.NewItemset(0, 2), 1)
	if c := tr.count(e); c != 2 {
		t.Fatalf("tid 1: {0,2} count = %d, want 2", c)
	}
}
