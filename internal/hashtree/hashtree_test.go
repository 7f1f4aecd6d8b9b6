package hashtree

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transactions"
)

func TestInsertAndLen(t *testing.T) {
	tr := New(2)
	if _, err := tr.Insert(transactions.NewItemset(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(transactions.NewItemset(1, 3)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.K() != 2 {
		t.Errorf("K = %d", tr.K())
	}
	if _, err := tr.Insert(transactions.NewItemset(1, 2, 3)); !errors.Is(err, ErrWrongLength) {
		t.Errorf("wrong-length error = %v", err)
	}
}

func TestNewWithParamsValidation(t *testing.T) {
	if _, err := NewWithParams(2, 0, 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("fanout=0 error = %v", err)
	}
	if _, err := NewWithParams(2, 4, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("leaf=0 error = %v", err)
	}
	if _, err := NewWithParams(0, 4, 4); !errors.Is(err, ErrBadParams) {
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
	if e12.Count != 2 {
		t.Errorf("{1,2} count = %d, want 2", e12.Count)
	}
	if e13.Count != 1 {
		t.Errorf("{1,3} count = %d, want 1", e13.Count)
	}
	if e24.Count != 1 {
		t.Errorf("{2,4} count = %d, want 1", e24.Count)
	}
}

func TestCountShortTransactionSkipped(t *testing.T) {
	tr := New(3)
	e, _ := tr.Insert(transactions.NewItemset(1, 2, 3))
	tr.CountTransaction(transactions.NewItemset(1, 2), 0)
	if e.Count != 0 {
		t.Errorf("count = %d, want 0", e.Count)
	}
}

func TestLeafSplitStillCorrect(t *testing.T) {
	// Force splits with a tiny leaf capacity and verify counts against
	// brute force.
	tr, err := NewWithParams(2, 4, 1)
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
		if e.Count != want[e.Items.Key()] {
			t.Errorf("candidate %v count = %d, want %d", e.Items, e.Count, want[e.Items.Key()])
		}
	}
}

func TestNoDoubleCountAcrossHashCollisions(t *testing.T) {
	// Fanout 2 forces heavy collisions; items 1 and 3 share hash, so a
	// transaction with both could reach the same leaf twice.
	tr, err := NewWithParams(2, 2, 1)
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
	if e.Count != 1 {
		t.Errorf("{1,3} counted %d times in one transaction, want 1", e.Count)
	}
}

func TestEntriesReturnsAll(t *testing.T) {
	tr, _ := NewWithParams(3, 4, 2)
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
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, fanoutRaw, leafRaw uint8) bool {
		fanout := int(fanoutRaw%7) + 1
		maxLeaf := int(leafRaw%5) + 1
		local := rand.New(rand.NewSource(seed))
		k := 1 + local.Intn(3)
		tr, err := NewWithParams(k, fanout, maxLeaf)
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
			if e.Count != want[e.Items.Key()] {
				return false
			}
		}
		return true
	}
	_ = rng
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
	tr, err := NewWithParams(2, 2, 1)
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
	if e.Count != 1 {
		t.Fatalf("tid 0: {0,2} count = %d, want 1", e.Count)
	}
	// The guard must still admit the next transaction.
	tr.CountTransaction(transactions.NewItemset(0, 2), 1)
	if e.Count != 2 {
		t.Fatalf("tid 1: {0,2} count = %d, want 2", e.Count)
	}
}

// TestConcurrentCountMatchesSerial shards the transactions across workers
// counting into private buffers and checks the merged counts equal the
// serial scan, under the race detector.
func TestConcurrentCountMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 2, 4, 8} {
		serial, _ := NewWithParams(2, 3, 2)
		parallel, _ := NewWithParams(2, 3, 2)
		var cands []transactions.Itemset
		seen := map[string]bool{}
		for i := 0; i < 25; i++ {
			s := transactions.NewItemset(rng.Intn(10), rng.Intn(10))
			if len(s) != 2 || seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			cands = append(cands, s)
			if _, err := serial.Insert(s); err != nil {
				t.Fatal(err)
			}
			if _, err := parallel.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		var txs []transactions.Itemset
		for i := 0; i < 101; i++ {
			items := make([]int, 1+rng.Intn(7))
			for j := range items {
				items[j] = rng.Intn(10)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		for tid, tx := range txs {
			serial.CountTransaction(tx, tid)
		}

		// Count-distribution: disjoint contiguous shards, private buffers.
		bufs := make([]*CountBuffer, workers)
		var wg sync.WaitGroup
		per := (len(txs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			start := w * per
			end := start + per
			if end > len(txs) {
				end = len(txs)
			}
			if start >= end {
				continue
			}
			bufs[w] = parallel.NewCountBuffer()
			wg.Add(1)
			go func(w, start, end int) {
				defer wg.Done()
				for tid := start; tid < end; tid++ {
					parallel.CountTransactionInto(txs[tid], tid, bufs[w])
				}
			}(w, start, end)
		}
		wg.Wait()
		for _, buf := range bufs {
			if buf != nil {
				parallel.Merge(buf)
			}
		}

		wantByKey := map[string]int{}
		for _, e := range serial.Entries(nil) {
			wantByKey[e.Items.Key()] = e.Count
		}
		ids := map[int]bool{}
		for _, e := range parallel.EntriesByID() {
			if e.Count != wantByKey[e.Items.Key()] {
				t.Fatalf("workers=%d: %v count = %d, want %d", workers, e.Items, e.Count, wantByKey[e.Items.Key()])
			}
			if ids[e.ID()] {
				t.Fatalf("duplicate entry id %d", e.ID())
			}
			ids[e.ID()] = true
		}
		if len(parallel.EntriesByID()) != len(cands) {
			t.Fatalf("EntriesByID returned %d entries, want %d", len(parallel.EntriesByID()), len(cands))
		}
	}
}

// scanBoth counts txs against cands twice — the untrimmed per-transaction
// loop and the trimmed scan — over trees built with the same parameters,
// and returns both count arrays.
func scanBoth(t *testing.T, k, fanout, maxLeaf int, cands, txs []transactions.Itemset) (untrimmed, trimmed []int) {
	t.Helper()
	tree, err := NewWithParams(k, fanout, maxLeaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if _, err := tree.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	plain := tree.NewCountBuffer()
	for tid, tx := range txs {
		tree.CountTransactionInto(tx, 100+tid, plain)
	}
	// In strides, as the cancellable local scan calls it: the scratch row
	// is resized between calls.
	buf := tree.NewCountBuffer()
	for off := 0; off < len(txs); off += 97 {
		tree.CountAllInto(txs[off:min(off+97, len(txs))], 100+off, buf)
	}
	return plain.Counts, buf.Counts
}

// randomSets returns n distinct sorted k-itemsets over items below top.
func randomSets(rng *rand.Rand, n, k, top int) []transactions.Itemset {
	seen := map[string]bool{}
	var out []transactions.Itemset
	for len(out) < n {
		set := transactions.NewItemset(rng.Perm(top)[:k]...)
		if key := set.String(); !seen[key] {
			seen[key] = true
			out = append(out, set)
		}
	}
	return out
}

// TestTrimmedScanMatchesUntrimmed is the equivalence the trimming rests
// on: dropping the items no candidate names changes no count. It compares
// whole count arrays at k = 3..5 for random candidate sets, candidates that
// between them name every item (nothing is trimmed), candidates that share
// one item or are one set (nearly everything is), and databases holding
// transactions shorter than k, empty ones included.
func TestTrimmedScanMatchesUntrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const top = 40
	txs := make([]transactions.Itemset, 600)
	for i := range txs {
		txs[i] = transactions.NewItemset(rng.Perm(top)[:rng.Intn(14)]...)
	}
	for k := 3; k <= 5; k++ {
		every := randomSets(rng, 60, k, top)
		for item := 0; item+k <= top; item += k {
			set := make([]int, k)
			for j := range set {
				set[j] = item + j
			}
			every = append(every, transactions.NewItemset(set...))
		}
		hub := make([]transactions.Itemset, 0, 12)
		for _, rest := range randomSets(rng, 12, k-1, top-1) {
			shifted := make([]int, 0, k)
			for _, item := range rest {
				shifted = append(shifted, item+1)
			}
			hub = append(hub, transactions.NewItemset(append(shifted, 0)...))
		}
		for name, cands := range map[string][]transactions.Itemset{
			"random":              randomSets(rng, 80, k, top),
			"every item live":     every,
			"one shared item":     hub,
			"one candidate":       randomSets(rng, 1, k, top),
			"items past the data": {transactions.NewItemset(append(rng.Perm(top)[:k-1], top+1000)...)},
		} {
			for _, params := range [][2]int{{DefaultFanout, DefaultMaxLeaf}, {3, 2}} {
				want, got := scanBoth(t, k, params[0], params[1], cands, txs)
				if len(got) != len(cands) {
					t.Fatalf("k=%d %s: %d counters for %d candidates", k, name, len(got), len(cands))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("k=%d %s fanout=%d: count[%d] (%v) = %d trimmed, %d untrimmed",
							k, name, params[0], i, cands[i], got[i], want[i])
					}
				}
			}
		}
		// A database of nothing but short rows counts nothing, trimmed or not.
		short := make([]transactions.Itemset, 50)
		for i := range short {
			short[i] = transactions.NewItemset(rng.Perm(top)[:rng.Intn(k)]...)
		}
		want, got := scanBoth(t, k, DefaultFanout, DefaultMaxLeaf, randomSets(rng, 20, k, top), short)
		for i := range want {
			if got[i] != 0 || want[i] != 0 {
				t.Errorf("k=%d short rows: count[%d] = %d trimmed, %d untrimmed, want 0", k, i, got[i], want[i])
			}
		}
	}
}

// TestTrimmedScanPastTheLiveTable: the live table stops at maxLive, so a
// candidate naming an enormous item costs no memory; items from there up
// are kept untrimmed and counts stay those of the untrimmed loop, on both
// sides of the boundary.
func TestTrimmedScanPastTheLiveTable(t *testing.T) {
	const huge = 1 << 40
	pool := []int{1, 2, 3, 4, maxLive - 1, maxLive, maxLive + 7, huge}
	rng := rand.New(rand.NewSource(7))
	txs := make([]transactions.Itemset, 300)
	for i := range txs {
		var tx []int
		for _, item := range pool {
			if rng.Intn(3) > 0 {
				tx = append(tx, item)
			}
		}
		txs[i] = transactions.NewItemset(tx...)
	}
	cands := []transactions.Itemset{
		{1, 2, 3}, {1, 2, maxLive}, {2, maxLive, huge}, {3, maxLive - 1, maxLive + 7}, {maxLive, maxLive + 7, huge},
	}
	want, got := scanBoth(t, 3, DefaultFanout, DefaultMaxLeaf, cands, txs)
	for i := range want {
		if got[i] != want[i] || want[i] == 0 {
			t.Errorf("count[%d] (%v) = %d trimmed, %d untrimmed (want equal and positive)", i, cands[i], got[i], want[i])
		}
	}
	tree := New(3)
	if _, err := tree.Insert(transactions.Itemset{5, huge, huge + 1}); err != nil {
		t.Fatal(err)
	}
	if len(tree.live) != 6 {
		t.Fatalf("live table of %d entries for a candidate naming %d", len(tree.live), huge)
	}
}

// TestTrimmedScanEmpty: a scan over no transactions counts nothing.
func TestTrimmedScanEmpty(t *testing.T) {
	tree := New(3)
	if _, err := tree.Insert(transactions.NewItemset(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	buf := tree.NewCountBuffer()
	tree.CountAllInto(nil, 0, buf)
	tree.CountAllInto([]transactions.Itemset{{}, {}}, 0, buf)
	if buf.Counts[0] != 0 {
		t.Fatalf("empty scans counted %d", buf.Counts[0])
	}
}
