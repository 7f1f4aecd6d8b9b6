package hashtree

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transactions"
)

// ID returns the entry's insertion rank, in [0, Tree.Len()).
func (e *Entry) ID() int { return e.id }

// count returns e's support as CountTransaction has counted it.
func (t *Tree) count(e *Entry) int { return t.Counts()[e.id] }

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
	out := make([]*Entry, t.Len())
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

func TestAdaptiveFanout(t *testing.T) {
	tests := []struct {
		nCands, k, maxLeaf int
		want               int
	}{
		{100, 2, 32, 16},        // 16² = 256 cells >= 4
		{200000, 2, 32, 128},    // need f² >= 6251
		{200000, 3, 32, 32},     // need f³ >= 6251 -> 32³ = 32768
		{10, 1, 32, 16},         // minimum
		{100000000, 2, 1, 4096}, // clamped at 4096
	}
	for _, tt := range tests {
		if got := adaptiveFanout(tt.nCands, tt.k, tt.maxLeaf); got != tt.want {
			t.Errorf("adaptiveFanout(%d, %d, %d) = %d, want %d",
				tt.nCands, tt.k, tt.maxLeaf, got, tt.want)
		}
	}
}

// TestBuild: Build sizes the fanout from the candidate count, numbers the
// entries in candidate order, and refuses a length it cannot build for —
// including the lengths a hostile peer could send — without allocating
// for them.
func TestBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cands := randomSets(rng, 5000, 3, 60)
	tree, err := Build(3, cands)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(cands) || tree.K() != 3 || tree.fanout != adaptiveFanout(len(cands), 3, DefaultMaxLeaf) || tree.maxLeaf != DefaultMaxLeaf {
		t.Fatalf("Build: %d entries, k=%d, fanout %d, leaf %d", tree.Len(), tree.K(), tree.fanout, tree.maxLeaf)
	}
	for i, e := range tree.EntriesByID() {
		if e.ID() != i || !slices.Equal(e.Items, cands[i]) {
			t.Fatalf("entry %d is %v (id %d), want candidate %v", i, e.Items, e.ID(), cands[i])
		}
	}
	for name, tc := range map[string]struct {
		k     int
		cands []transactions.Itemset
		want  error
	}{
		"k = 0":          {0, nil, ErrBadParams},
		"negative k":     {-3, cands[:1], ErrBadParams},
		"k past the set": {1 << 40, cands[:2], ErrWrongLength},
		"mixed lengths":  {3, []transactions.Itemset{{1, 2, 3}, {1, 2}}, ErrWrongLength},
	} {
		if _, err := Build(tc.k, tc.cands); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	// A length no candidate has, over no candidates, is an empty tree that
	// counts nothing.
	empty, err := Build(1<<40, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := empty.NewCountBuffer()
	empty.CountAllInto([]transactions.Itemset{{1, 2, 3}}, 0, buf)
	if empty.Len() != 0 || len(buf.Counts) != 0 {
		t.Fatalf("empty tree: %d entries, %d counters", empty.Len(), len(buf.Counts))
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
	rng := rand.New(rand.NewSource(3))
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

// TestConcurrentCountMatchesSerial shards the transactions across workers
// counting into private buffers and checks the merged counts equal the
// serial scan, under the race detector.
func TestConcurrentCountMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 2, 4, 8} {
		serial, _ := newWithParams(2, 3, 2)
		parallel, _ := newWithParams(2, 3, 2)
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
				parallel.CountAllInto(txs[start:end], start, bufs[w])
			}(w, start, end)
		}
		wg.Wait()
		// The trees are built alike, so entry ids match across them.
		got := make([]int, parallel.Len())
		for _, buf := range bufs {
			if buf != nil {
				for id, c := range buf.Counts {
					got[id] += c
				}
			}
		}
		if want := serial.Counts(); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: merged counts %v, serial %v", workers, got, want)
		}
		for id, e := range parallel.EntriesByID() {
			if e == nil || !slices.Equal(e.Items, cands[id]) {
				t.Fatalf("entry id %d is %v, want candidate %v", id, e, cands[id])
			}
		}
	}
}

// scanBoth counts txs against cands twice — the untrimmed per-transaction
// loop and the trimmed scan — in one tree, and returns both count arrays.
func scanBoth(t *testing.T, k, fanout, maxLeaf int, cands, txs []transactions.Itemset) (untrimmed, trimmed []int) {
	t.Helper()
	tree, err := newWithParams(k, fanout, maxLeaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if _, err := tree.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	for tid, tx := range txs {
		tree.CountTransaction(tx, 100+tid)
	}
	// In strides, as the cancellable local scan calls it: the scratch row
	// is resized between calls.
	buf := tree.NewCountBuffer()
	for off := 0; off < len(txs); off += 97 {
		tree.CountAllInto(txs[off:min(off+97, len(txs))], 100+off, buf)
	}
	return tree.Counts(), buf.Counts
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
