package fptree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/transactions"
)

// countItems is a test-local pass-1 scan.
func countItems(txs []transactions.Itemset, numItems int) []int {
	counts := make([]int, numItems)
	for _, tx := range txs {
		for _, item := range tx {
			counts[item]++
		}
	}
	return counts
}

// paperTxs is the worked example of the FP-growth paper (items renamed to
// small ints): five transactions whose tree has the shape the paper draws.
func paperTxs() []transactions.Itemset {
	return []transactions.Itemset{
		transactions.NewItemset(0, 1, 4, 6, 9),
		transactions.NewItemset(0, 1, 2, 5, 8),
		transactions.NewItemset(1, 3, 7),
		transactions.NewItemset(1, 2, 9),
		transactions.NewItemset(0, 1, 2, 5, 9),
	}
}

func TestNewRanksOrder(t *testing.T) {
	counts := []int{3, 0, 3, 1, 5, 2}
	r := NewRanks(counts, 2)
	// Frequent: item 4 (5), items 0 and 2 (3 each, tie broken by id), item 5 (2).
	wantItems := []int32{4, 0, 2, 5}
	if !reflect.DeepEqual(r.Items, wantItems) {
		t.Fatalf("Items = %v, want %v", r.Items, wantItems)
	}
	if !reflect.DeepEqual(r.Counts, []int{5, 3, 3, 2}) {
		t.Fatalf("Counts = %v", r.Counts)
	}
	for item, rk := range r.OfItem {
		frequent := counts[item] >= 2
		if frequent != (rk >= 0) {
			t.Fatalf("OfItem[%d] = %d, frequent=%v", item, rk, frequent)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestBuildTotalsMatchSupports(t *testing.T) {
	txs := paperTxs()
	counts := countItems(txs, 10)
	r := NewRanks(counts, 2)
	tree := Build(txs, r)
	for rk := 0; rk < r.Len(); rk++ {
		if got, want := tree.Total(int32(rk)), r.Counts[rk]; got != want {
			t.Errorf("Total(rank %d, item %d) = %d, want %d", rk, r.Items[rk], got, want)
		}
	}
	if tree.Empty() {
		t.Fatal("tree should not be empty")
	}
	// Prefix compression: the node count must be below the total item
	// occurrences (paths share prefixes) but at least the rank count.
	occurrences := 0
	for rk := 0; rk < r.Len(); rk++ {
		occurrences += r.Counts[rk]
	}
	if n := tree.NumNodes(); n >= occurrences || n < r.Len() {
		t.Fatalf("NumNodes = %d, want in [%d, %d)", n, r.Len(), occurrences)
	}
}

// TestMergeBitIdentical splits random databases into shards, builds one
// tree per shard, merges them in order and in reverse, and checks both
// merged trees agree with the single-build tree on every rank total and on
// every projection's totals — the bit-identical-counts contract.
func TestMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nTx := 5 + rng.Intn(60)
		txs := make([]transactions.Itemset, nTx)
		for i := range txs {
			n := 1 + rng.Intn(7)
			items := make([]int, n)
			for j := range items {
				items[j] = rng.Intn(12)
			}
			txs[i] = transactions.NewItemset(items...)
		}
		minCount := 1 + rng.Intn(4)
		r := NewRanks(countItems(txs, 12), minCount)
		want := Build(txs, r)

		nShards := 1 + rng.Intn(5)
		var shards [][]transactions.Itemset
		per := nTx / nShards
		for s := 0; s < nShards; s++ {
			lo := s * per
			hi := lo + per
			if s == nShards-1 {
				hi = nTx
			}
			shards = append(shards, txs[lo:hi])
		}
		for _, order := range [][]int{forward(nShards), backward(nShards)} {
			merged := New(r)
			for _, s := range order {
				merged.Merge(Build(shards[s], r))
			}
			for rk := 0; rk < r.Len(); rk++ {
				if merged.Total(int32(rk)) != want.Total(int32(rk)) {
					t.Fatalf("trial %d: merged total of rank %d = %d, want %d",
						trial, rk, merged.Total(int32(rk)), want.Total(int32(rk)))
				}
			}
			// Projections over the merged tree must agree with projections
			// over the single-build tree rank by rank.
			sm, sw := NewScratch(r), NewScratch(r)
			for rk := 0; rk < r.Len(); rk++ {
				cm := merged.Project(int32(rk), minCount, sm)
				cw := want.Project(int32(rk), minCount, sw)
				for rr := 0; rr < r.Len(); rr++ {
					if cm.Total(int32(rr)) != cw.Total(int32(rr)) {
						t.Fatalf("trial %d: conditional total diverges at rank %d|%d: %d vs %d",
							trial, rr, rk, cm.Total(int32(rr)), cw.Total(int32(rr)))
					}
				}
				sm.Release(cm)
				sw.Release(cw)
			}
		}
	}
}

func forward(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func backward(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestProjectCountsAreExactSupports cross-checks conditional totals against
// brute-force co-occurrence counts.
func TestProjectCountsAreExactSupports(t *testing.T) {
	txs := paperTxs()
	const minCount = 2
	r := NewRanks(countItems(txs, 10), minCount)
	tree := Build(txs, r)
	s := NewScratch(r)
	for rk := 0; rk < r.Len(); rk++ {
		cond := tree.Project(int32(rk), minCount, s)
		for rr := 0; rr < r.Len(); rr++ {
			got := cond.Total(int32(rr))
			// Brute force: transactions containing both items. Only ranks
			// above rk (more frequent items) appear in rk's prefix paths —
			// that is how pattern growth counts each itemset exactly once,
			// at its least-frequent member.
			pair := transactions.NewItemset(int(r.Items[rk]), int(r.Items[rr]))
			want := 0
			if rr < rk {
				for _, tx := range txs {
					if tx.ContainsAll(pair) {
						want++
					}
				}
				if want < minCount {
					want = 0 // pruned before insertion
				}
			}
			if got != want {
				t.Errorf("conditional support of item %d given %d = %d, want %d",
					r.Items[rr], r.Items[rk], got, want)
			}
		}
		s.Release(cond)
	}
}

func TestSinglePath(t *testing.T) {
	txs := []transactions.Itemset{
		transactions.NewItemset(1, 2, 3),
		transactions.NewItemset(1, 2),
		transactions.NewItemset(1),
	}
	r := NewRanks(countItems(txs, 4), 1)
	tree := Build(txs, r)
	s := NewScratch(r)
	ranks, counts, ok := tree.SinglePath(s)
	if !ok {
		t.Fatal("chain database should build a single-path tree")
	}
	if len(ranks) != 3 || !reflect.DeepEqual(counts, []int{3, 2, 1}) {
		t.Fatalf("path = %v counts = %v", ranks, counts)
	}

	branchy := append(txs, transactions.NewItemset(0, 3))
	rb := NewRanks(countItems(branchy, 4), 1)
	bt := Build(branchy, rb)
	if _, _, ok := bt.SinglePath(s); ok {
		t.Fatal("branching tree reported as single path")
	}

	if _, _, ok := New(r).SinglePath(s); !ok {
		t.Fatal("empty tree is trivially a single (empty) path")
	}
}

// TestScratchTreeReuse pins the pool round-trip: a released tree is reused
// and behaves like a fresh one.
func TestScratchTreeReuse(t *testing.T) {
	txs := paperTxs()
	r := NewRanks(countItems(txs, 10), 2)
	tree := Build(txs, r)
	s := NewScratch(r)
	first := tree.Project(0, 2, s)
	firstTotals := make([]int, r.Len())
	for rk := range firstTotals {
		firstTotals[rk] = first.Total(int32(rk))
	}
	s.Release(first)
	again := tree.Project(0, 2, s)
	if again != first {
		t.Fatal("pool did not recycle the released tree")
	}
	for rk := range firstTotals {
		if again.Total(int32(rk)) != firstTotals[rk] {
			t.Fatalf("recycled tree totals diverge at rank %d", rk)
		}
	}
}

func TestBuildIgnoresInfrequentAndOutOfRange(t *testing.T) {
	txs := []transactions.Itemset{
		transactions.NewItemset(0, 1),
		transactions.NewItemset(0, 1),
		transactions.NewItemset(2), // infrequent at minCount 2
	}
	r := NewRanks(countItems(txs, 3), 2)
	// An item beyond the rank table (seen only after ranks froze) is skipped.
	tree := Build(append(txs, transactions.NewItemset(0, 7)), r)
	if got := tree.Total(r.OfItem[0]); got != 3 {
		t.Fatalf("Total(item 0) = %d, want 3", got)
	}
	if tree.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2 (shared prefix)", tree.NumNodes())
	}
}

// insertReference is the incremental build Build replaced, kept as the
// reference: filter each transaction to its ranked items, rank-sort it and
// insert the path with count 1, finding or creating each child on the way
// down. It shares Insert with the conditional trees but none of Build's
// sorting, prefix counting or arena layout.
func insertReference(txs []transactions.Itemset, r *Ranks) *Tree {
	t := New(r)
	var buf []int32
	for _, tx := range txs {
		buf = buf[:0]
		for _, item := range tx {
			if item >= 0 && item < len(r.OfItem) {
				if rk := r.OfItem[item]; rk >= 0 {
					buf = append(buf, rk)
				}
			}
		}
		slices.Sort(buf)
		if len(buf) > 0 {
			t.Insert(buf, 1)
		}
	}
	return t
}

// randomTxs draws n transactions of up to maxLen items from a universe of
// numItems, skewed so that low item ids are frequent and prefixes share.
func randomTxs(rng *rand.Rand, n, maxLen, numItems int) []transactions.Itemset {
	txs := make([]transactions.Itemset, n)
	for i := range txs {
		items := make([]int, 1+rng.Intn(maxLen))
		for j := range items {
			items[j] = rng.Intn(1 + rng.Intn(numItems))
		}
		txs[i] = transactions.NewItemset(items...)
	}
	return txs
}

// requireSameTrie fails unless got and want hold the same prefix tree: a
// trie is canonical, so the node counts must match exactly, and so must
// every rank's total and every rank's conditional supports.
func requireSameTrie(t *testing.T, got, want *Tree, minCount int) {
	t.Helper()
	r := want.Ranks()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if !slices.Equal(got.Present(), want.Present()) {
		t.Fatalf("Present = %v, want %v", got.Present(), want.Present())
	}
	sg, sw := NewScratch(r), NewScratch(r)
	for rk := int32(0); int(rk) < r.Len(); rk++ {
		if got.Total(rk) != want.Total(rk) {
			t.Fatalf("Total(rank %d) = %d, want %d", rk, got.Total(rk), want.Total(rk))
		}
		cg, cw := got.Project(rk, minCount, sg), want.Project(rk, minCount, sw)
		if cg.NumNodes() != cw.NumNodes() {
			t.Fatalf("Project(rank %d) has %d nodes, want %d", rk, cg.NumNodes(), cw.NumNodes())
		}
		for p := int32(0); int(p) < r.Len(); p++ {
			if cg.Total(p) != cw.Total(p) {
				t.Fatalf("Project(rank %d).Total(%d) = %d, want %d", rk, p, cg.Total(p), cw.Total(p))
			}
		}
		sg.Release(cg)
		sw.Release(cw)
	}
}

// TestBuildMatchesInsertReference holds the sort-then-scan build to the
// incremental insertion it replaced, on random runs and on the degenerate
// ones: no transactions, no ranked items, every item infrequent, duplicate
// transactions, one-item paths, and item ids outside the rank table.
func TestBuildMatchesInsertReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type run struct {
		name     string
		txs      []transactions.Itemset
		counted  []transactions.Itemset // what the ranks are drawn from; nil = txs
		minCount int
	}
	dup := transactions.NewItemset(1, 3, 5)
	cases := []run{
		{name: "no transactions", txs: nil, counted: paperTxs(), minCount: 2},
		{name: "no ranked items", txs: paperTxs(), minCount: 99},
		{name: "every item infrequent here", txs: []transactions.Itemset{transactions.NewItemset(3, 7)}, counted: paperTxs(), minCount: 3},
		{name: "duplicate transactions", txs: []transactions.Itemset{dup, dup, dup, transactions.NewItemset(1, 3), dup}, minCount: 1},
		{name: "one-item paths", txs: []transactions.Itemset{{4}, {2}, {4}, {}, {9}}, minCount: 1},
		{name: "out-of-range item ids", txs: []transactions.Itemset{{0, 1, 400}, {-5, 0, 1}, {1, 1 << 40}}, counted: paperTxs(), minCount: 2},
		{name: "paper example", txs: paperTxs(), minCount: 2},
	}
	for trial := 0; trial < 40; trial++ {
		cases = append(cases, run{
			name:     fmt.Sprintf("random %d", trial),
			txs:      randomTxs(rng, rng.Intn(120), 9, 14),
			minCount: 1 + rng.Intn(5),
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counted := tc.counted
			if counted == nil {
				counted = tc.txs
			}
			r := NewRanks(countItems(counted, 14), tc.minCount)
			requireSameTrie(t, Build(tc.txs, r), insertReference(tc.txs, r), tc.minCount)
		})
	}
}

// FuzzBuild drives the same comparison from fuzzed bytes: each byte is an
// item (the high bit ends the transaction), so the fuzzer controls path
// lengths, duplicates and sharing. It also holds Import(Export(t)) to the
// built trie: the same node pool, and the same totals and projections.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x80, 1, 2, 0x80, 1, 2, 3, 0x80, 7}, uint8(1))
	f.Add([]byte{0x80, 0x80, 5, 5, 5}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, minRaw uint8) {
		txs := []transactions.Itemset{nil}
		for _, b := range data {
			last := &txs[len(txs)-1]
			*last = append(*last, int(b&0x1f))
			if b&0x80 != 0 {
				txs = append(txs, nil)
			}
		}
		for i, tx := range txs {
			txs[i] = transactions.NewItemset(tx...)
		}
		minCount := 1 + int(minRaw%4)
		r := NewRanks(countItems(txs, 32), minCount)
		built := Build(txs, r)
		requireSameTrie(t, built, insertReference(txs, r), minCount)
		// The wire round trip rebuilds both halves of every node.
		imported, err := Import(r, built.Export())
		if err != nil {
			t.Fatalf("Import(Export(t)): %v", err)
		}
		if !reflect.DeepEqual(imported.Export(), built.Export()) {
			t.Fatalf("Import(Export(t)) exports %v, want %v", imported.Export(), built.Export())
		}
		requireSameTrie(t, imported, built, minCount)
	})
}

// TestBuildAllocationsAreConstant pins the arena contract: Build sizes the
// node pool exactly before laying a node down, so its allocation count does
// not depend on how many transactions it is given. (The incremental build
// regrew the pool by doubling and failed this.)
func TestBuildAllocationsAreConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	txs := randomTxs(rng, 20000, 10, 200)
	r := NewRanks(countItems(txs, 200), 20)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { Build(txs[:n], r) })
	}
	small, large := allocs(200), allocs(len(txs))
	if small != large {
		t.Fatalf("Build allocates %v times on 200 transactions and %v on %d; want the same constant", small, large, len(txs))
	}
	if large > 12 {
		t.Fatalf("Build allocates %v times; want a small constant", large)
	}
}

// TestForestProjectsLikeMergedTree is the forest's own contract, below the
// miner: for every split of a run into shards — including empty shards,
// shards whose every item is infrequent and nil entries — each rank's
// total and conditional tree over the forest equal those of the one tree
// Merge folds the same shards into.
func TestForestProjectsLikeMergedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		txs := randomTxs(rng, 5+rng.Intn(80), 8, 12)
		minCount := 1 + rng.Intn(4)
		r := NewRanks(countItems(txs, 12), minCount)
		var trees []*Tree
		merged := New(r)
		for lo := 0; lo < len(txs); {
			hi := min(len(txs), lo+rng.Intn(30)) // zero-length shards included
			trees = append(trees, Build(txs[lo:hi], r), nil)
			merged.Merge(Build(txs[lo:hi], r))
			lo = hi
		}
		trees = append(trees, Build([]transactions.Itemset{{99}, {-1}}, r))
		forest := NewForest(r, trees...)
		sf, sm := NewScratch(r), NewScratch(r)
		for rk := int32(0); int(rk) < r.Len(); rk++ {
			if forest.Total(rk) != merged.Total(rk) {
				t.Fatalf("trial %d: forest Total(%d) = %d, want %d", trial, rk, forest.Total(rk), merged.Total(rk))
			}
			cf, cm := forest.Project(rk, minCount, sf), merged.Project(rk, minCount, sm)
			requireSameTrie(t, cf, cm, minCount)
			sf.Release(cf)
			sm.Release(cm)
		}
	}
	// The empty forest is the empty database, with or without ranks.
	for _, r := range []*Ranks{NewRanks([]int(nil), 1), NewRanks([]int{4, 4}, 2)} {
		empty := NewForest(r, nil, nil)
		if len(empty.Trees()) != 0 {
			t.Fatalf("nil trees kept: %v", empty.Trees())
		}
		s := NewScratch(r)
		for rk := int32(0); int(rk) < r.Len(); rk++ {
			if empty.Total(rk) != 0 || !empty.Project(rk, 1, s).Empty() {
				t.Fatalf("empty forest reports support for rank %d", rk)
			}
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	txs := paperTxs()
	r := NewRanks(countItems(txs, 10), 2)
	tree := Build(txs, r)
	imported, err := Import(r, tree.Export())
	if err != nil {
		t.Fatal(err)
	}
	if imported.NumNodes() != tree.NumNodes() {
		t.Fatalf("nodes = %d, want %d", imported.NumNodes(), tree.NumNodes())
	}
	for rk := int32(0); int(rk) < r.Len(); rk++ {
		if imported.Total(rk) != tree.Total(rk) {
			t.Errorf("total(rank %d) = %d, want %d", rk, imported.Total(rk), tree.Total(rk))
		}
	}
	if !reflect.DeepEqual(imported.Present(), tree.Present()) {
		t.Errorf("present = %v, want %v", imported.Present(), tree.Present())
	}
	// Projection counts survive the round trip: same conditional supports
	// for every rank even though chain orders may differ.
	s1, s2 := NewScratch(r), NewScratch(r)
	for rk := int32(0); int(rk) < r.Len(); rk++ {
		a := tree.Project(rk, 2, s1)
		b := imported.Project(rk, 2, s2)
		for p := int32(0); int(p) < r.Len(); p++ {
			if a.Total(p) != b.Total(p) {
				t.Errorf("project(%d) total(%d) = %d, want %d", rk, p, b.Total(p), a.Total(p))
			}
		}
		s1.Release(a)
		s2.Release(b)
	}
}

func TestImportRandomizedEqualsMergedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		var txs []transactions.Itemset
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			m := 1 + rng.Intn(6)
			items := make([]int, m)
			for j := range items {
				items[j] = rng.Intn(12)
			}
			txs = append(txs, transactions.NewItemset(items...))
		}
		r := NewRanks(countItems(txs, 12), 2)
		whole := Build(txs, r)
		// Split, build per part, export/import each, merge — the
		// distributed build path — and compare totals and node counts.
		cut := rng.Intn(len(txs))
		a, err := Import(r, Build(txs[:cut], r).Export())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Import(r, Build(txs[cut:], r).Export())
		if err != nil {
			t.Fatal(err)
		}
		a.Merge(b)
		if a.NumNodes() != whole.NumNodes() {
			t.Fatalf("trial %d: nodes = %d, want %d", trial, a.NumNodes(), whole.NumNodes())
		}
		for rk := int32(0); int(rk) < r.Len(); rk++ {
			if a.Total(rk) != whole.Total(rk) {
				t.Fatalf("trial %d: total(%d) = %d, want %d", trial, rk, a.Total(rk), whole.Total(rk))
			}
		}
	}
}

func TestImportRejectsMalformedNodes(t *testing.T) {
	r := NewRanks([]int{5, 5}, 2)
	if _, err := Import(r, []EncodedNode{{Rank: 9, Parent: 0, Count: 1}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 5, Count: 1}}); err == nil {
		t.Error("forward parent reference accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: -1, Count: 1}}); err == nil {
		t.Error("negative parent accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: 0}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: -3}}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: math.MaxInt32 + 1}}); err == nil {
		t.Error("count beyond the int32 node counts accepted")
	}
	if _, err := Import(r, []EncodedNode{{Rank: 0, Parent: 0, Count: math.MaxInt32}}); err != nil {
		t.Errorf("count math.MaxInt32 refused: %v", err)
	}
}

// benchTxs is a run shaped like the mining workloads: short transactions
// over a skewed universe, so prefixes share near the root and fan out below.
func benchTxs() ([]transactions.Itemset, *Ranks) {
	txs := randomTxs(rand.New(rand.NewSource(1)), 20000, 12, 400)
	return txs, NewRanks(countItems(txs, 400), 40)
}

var benchSink int

func BenchmarkBuild(b *testing.B) {
	txs, r := benchTxs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += Build(txs, r).NumNodes()
	}
}

// BenchmarkProjectForest projects every rank once over a two-tree forest —
// the first level of a two-worker mine.
func BenchmarkProjectForest(b *testing.B) {
	txs, r := benchTxs()
	half := len(txs) / 2
	forest := NewForest(r, Build(txs[:half], r), Build(txs[half:], r))
	s := NewScratch(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rk := int32(0); int(rk) < r.Len(); rk++ {
			cond := forest.Project(rk, 40, s)
			benchSink += cond.NumNodes()
			s.Release(cond)
		}
	}
}
