package assoc

// FUP-style incremental maintenance of a mined frequent set under
// appends and deletes (Cheung et al., ICDE'96 — the update-time
// counterpart of the SIGMOD'96 tutorial's level-wise miners).
//
// The maintainer keeps, per shard of a transactions.ShardedDB, the cached
// counting structures of the PR 1 engine: the flat pass-1 item array, the
// triangular pass-2 pair array over the last rebuild's L1 ranks, and one
// hashtree.CountBuffer per candidate length >= 3. The tracked candidate
// set is the frequent set at a slack-lowered support plus its negative
// border (so near-threshold itemsets are already covered), and after an
// update the maintainer:
//
//  1. re-counts only the shards whose version changed (dirty shards),
//     subtracting their stale cached counts from the running totals and
//     adding the fresh ones — clean shards cost nothing, not even a merge;
//  2. re-thresholds the totals level by level, pruning candidate
//     generation to itemsets whose exact counts are already tracked;
//  3. falls back to a full re-mine only when the border is crossed — some
//     candidate the new frequent set needs was never tracked, so its count
//     is unknown.
//
// Because every tracked count is exact (the caches tile the database and
// integer addition is invertible), the maintained result is byte-identical
// to a from-scratch run at every step; the property tests verify this
// across randomized append/delete sequences.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// ErrNotAttached reports Maintain before Attach.
var ErrNotAttached = errors.New("assoc: incremental miner not attached to a store")

// StoreBinder is implemented by base miners that can reuse the store's
// shard version stamps across full runs — the Distributed engine, whose
// workers keep versioned shard replicas. Attach binds such a base to the
// store, so a border-crossing full re-mine re-ships only the shards an
// Append/DeleteAt dirtied instead of re-shipping the whole database.
type StoreBinder interface {
	BindStore(*transactions.ShardedDB)
}

// MaintainStats describes the work one Maintain call did.
type MaintainStats struct {
	NumShards   int    // shards in the store
	DirtyShards int    // shards re-counted (version changed or new)
	RecountedTx int    // transactions scanned while re-counting
	FullRun     bool   // true when the update fell back to a full re-mine
	Reason      string // why the full run happened; "" when incremental
}

// shardCache is one shard's cached counting structures, valid for the
// shard version it was counted at. The pair counts are sparse — a shard
// touches far fewer pairs than the full triangle addresses — so caching
// and re-merging a shard costs O(pairs it contains), not O(|L1|^2).
type shardCache struct {
	version uint64
	numTx   int
	items   []int                         // pass-1 flat array
	triIdx  []int32                       // touched triangular indices over rebuild L1 ranks
	triCnt  []int32                       // counts parallel to triIdx
	bufs    map[int]*hashtree.CountBuffer // per-length candidate counts, k >= 3
}

// Incremental maintains the frequent itemsets of a ShardedDB across
// appends and deletes, re-counting only dirty shards (see the package
// comment above). Attach runs the initial full mine and builds the caches;
// Maintain brings the result up to date after mutations.
type Incremental struct {
	// Base is the miner used for full runs (Attach and border-crossing
	// fallbacks). Any of the package's miners works — they produce
	// identical results; nil means Apriori sharing Workers.
	Base Miner
	// Workers bounds how many dirty shards are re-counted concurrently;
	// <= 1 re-counts serially. Results are identical either way.
	Workers int
	// TrackSlack lowers the support at which the tracked candidate set is
	// frozen: rebuilds mine at minSupport*TrackSlack, so itemsets near the
	// threshold already have cached counts and small updates that nudge
	// them across it stay incremental (the same slack idea as Toivonen's
	// lowered sample threshold). Results are exact regardless — slack only
	// trades cache memory against fallback frequency. 0 means the default
	// 0.8; 1 tracks exactly the frequent set and its border.
	TrackSlack float64

	store      *transactions.ShardedDB
	minSupport float64

	// Tracked candidate set, frozen at the last rebuild.
	rank    []int                  // item id -> L1 rank at rebuild, -1 if not frequent then
	l1Items []int                  // rank -> item id
	trees   map[int]*hashtree.Tree // tracked k-itemsets (frequent + border), k >= 3
	treeIdx map[int]map[string]int // itemset key -> entry id per tree

	// Per-shard caches and the incrementally maintained global totals.
	cache      []*shardCache
	itemTotals []int
	triTotals  []int
	treeTotals map[int][]int // summed CountBuffer counts by entry id

	// triScratch pools zeroed dense triangles for countShard: each worker
	// borrows one, counts into it, extracts the touched entries into the
	// sparse cache, re-zeroes only those, and returns it.
	triScratch sync.Pool

	prev *Result
}

// SetWorkers implements WorkerSetter.
func (inc *Incremental) SetWorkers(n int) { inc.Workers = n }

// base returns the full-run miner.
func (inc *Incremental) base() Miner {
	if inc.Base != nil {
		return inc.Base
	}
	return &Apriori{Workers: inc.Workers}
}

// trackSupport returns the lowered support the tracked set is frozen at.
func (inc *Incremental) trackSupport() float64 {
	slack := inc.TrackSlack
	if slack <= 0 || slack > 1 {
		slack = 0.8
	}
	return inc.minSupport * slack
}

// Attach binds the maintainer to a store, runs the initial full mine at
// minSupport and builds the per-shard caches. It returns the initial
// result; the stats report a full run over every shard.
func (inc *Incremental) Attach(store *transactions.ShardedDB, minSupport float64) (*Result, MaintainStats, error) {
	return inc.AttachContext(context.Background(), store, minSupport)
}

// AttachContext is Attach with the initial full mine under ctx.
func (inc *Incremental) AttachContext(ctx context.Context, store *transactions.ShardedDB, minSupport float64) (*Result, MaintainStats, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, MaintainStats{}, fmt.Errorf("%w: %v", ErrBadSupport, minSupport)
	}
	inc.store = store
	inc.minSupport = minSupport
	inc.prev = nil
	if sb, ok := inc.Base.(StoreBinder); ok {
		sb.BindStore(store)
	}
	return inc.MaintainContext(ctx)
}

// Result returns the currently maintained frequent set (nil before Attach).
func (inc *Incremental) Result() *Result { return inc.prev }

// Rules regenerates the association rules from the maintained frequent
// set — the rule-maintenance face of FUP: itemset counts are maintained
// incrementally and rules are cheap post-processing over them.
func (inc *Incremental) Rules(minConfidence float64) ([]Rule, error) {
	if inc.prev == nil {
		return nil, ErrNotAttached
	}
	return GenerateRules(inc.prev, minConfidence)
}

// Maintain brings the frequent set up to date with the store: dirty shards
// are re-counted, totals are re-thresholded, and a full re-mine runs only
// when the tracked border no longer covers the answer.
func (inc *Incremental) Maintain() (*Result, MaintainStats, error) {
	return inc.MaintainContext(context.Background())
}

// MaintainContext is Maintain under ctx. A cancelled maintain returns
// ctx.Err() before any cached totals are spliced, so the maintainer's
// state stays exactly what it was and the next call resumes cleanly —
// except when the cancellation lands inside a full rebuild, which resets
// the caches first; that case marks the maintainer dirty so the next call
// runs a fresh full mine instead of trusting half-built caches.
func (inc *Incremental) MaintainContext(ctx context.Context) (*Result, MaintainStats, error) {
	var stats MaintainStats
	if inc.store == nil {
		return nil, stats, ErrNotAttached
	}
	if inc.store.Len() == 0 {
		return nil, stats, ErrEmptyDB
	}
	stats.NumShards = inc.store.NumShards()
	if inc.prev == nil {
		return inc.rebuild(ctx, &stats, "initial full mine")
	}

	dirty := inc.dirtyShards()
	stats.DirtyShards = len(dirty)
	if len(dirty) == 0 && inc.prev.NumTx == inc.store.Len() {
		// Nothing changed: same shards, same threshold, same answer.
		return inc.prev, stats, nil
	}
	if err := inc.recount(ctx, dirty, &stats); err != nil {
		return nil, stats, err
	}

	res, ok, reason := inc.threshold()
	if !ok {
		return inc.rebuild(ctx, &stats, reason)
	}
	inc.prev = res
	return res, stats, nil
}

// dirtyShards lists the shard indices whose cache is missing or stale,
// growing the cache slice to the store's shard count.
func (inc *Incremental) dirtyShards() []int {
	n := inc.store.NumShards()
	for len(inc.cache) < n {
		inc.cache = append(inc.cache, nil)
	}
	var dirty []int
	for i := 0; i < n; i++ {
		if c := inc.cache[i]; c == nil || c.version != inc.store.Version(i) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// recount re-counts the given shards into fresh caches (concurrently up to
// Workers) and splices them into the running totals: stale counts are
// subtracted, fresh ones added. Counting is per-shard private, so the
// concurrent path is race-free and bit-identical to the serial one. On
// cancellation it returns ctx.Err() before the splice, leaving the totals
// and caches untouched.
func (inc *Incremental) recount(ctx context.Context, dirty []int, stats *MaintainStats) error {
	fresh := make([]*shardCache, len(dirty))
	count := func(slot, shard int) {
		if ctx.Err() != nil {
			return
		}
		view, version := inc.store.ShardView(shard)
		fresh[slot] = inc.countShard(view, version)
	}
	if inc.Workers > 1 && len(dirty) > 1 {
		sem := make(chan struct{}, inc.Workers)
		var wg sync.WaitGroup
		for slot, shard := range dirty {
			wg.Add(1)
			go func(slot, shard int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				count(slot, shard)
			}(slot, shard)
		}
		wg.Wait()
	} else {
		for slot, shard := range dirty {
			count(slot, shard)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Totals splice (serial: plain integer adds, order-independent).
	inc.growTotals()
	for slot, shard := range dirty {
		if old := inc.cache[shard]; old != nil {
			inc.spliceTotals(old, -1)
		}
		inc.spliceTotals(fresh[slot], +1)
		inc.cache[shard] = fresh[slot]
		stats.RecountedTx += fresh[slot].numTx
	}
	return nil
}

// growTotals extends the pass-1 totals to the store's current item
// universe (NumItems is monotone, so existing slots keep their counts).
func (inc *Incremental) growTotals() {
	for len(inc.itemTotals) < inc.store.NumItems() {
		inc.itemTotals = append(inc.itemTotals, 0)
	}
}

// spliceTotals adds sign*counts of one shard cache into the totals.
func (inc *Incremental) spliceTotals(c *shardCache, sign int) {
	for i, v := range c.items {
		inc.itemTotals[i] += sign * v
	}
	for i, idx := range c.triIdx {
		inc.triTotals[idx] += sign * int(c.triCnt[i])
	}
	for k, buf := range c.bufs {
		tot := inc.treeTotals[k]
		for id, v := range buf.Counts {
			tot[id] += sign * v
		}
	}
}

// countShard scans one shard into a fresh cache: pass-1 item counts, the
// triangular pair array over the rebuild's L1 ranks, and one CountBuffer
// per tracked tree. Shard-local transaction offsets serve as the dedup
// tids — they only need to be distinct within the buffer's own scan.
func (inc *Incremental) countShard(sh transactions.Shard, version uint64) *shardCache {
	c := &shardCache{
		version: version,
		numTx:   len(sh.Transactions),
		items:   make([]int, inc.store.NumItems()),
		bufs:    make(map[int]*hashtree.CountBuffer, len(inc.trees)),
	}
	for k, tree := range inc.trees {
		c.bufs[k] = tree.NewCountBuffer()
	}
	// Borrow a zeroed dense triangle, count into it, then keep only the
	// touched entries: a shard contains far fewer distinct pairs than the
	// triangle addresses, and the sparse form makes cache memory and merge
	// cost proportional to the shard, not to |L1|^2.
	var scratch []int
	if v := inc.triScratch.Get(); v != nil {
		scratch = v.([]int)
	}
	if len(scratch) < len(inc.triTotals) {
		scratch = make([]int, len(inc.triTotals))
	}
	var touched []int32
	n := len(inc.l1Items)
	ranks := make([]int, 0, 64)
	for off, tx := range sh.Transactions {
		transactions.CountItems(tx, c.items)
		// The pair pass stays apart from transactions.CountPairs: it
		// records which triangle cells the shard touches as it counts.
		ranks = ranks[:0]
		for _, item := range tx {
			if item < len(inc.rank) && inc.rank[item] >= 0 {
				ranks = append(ranks, inc.rank[item])
			}
		}
		for a := 0; a < len(ranks); a++ {
			for b := a + 1; b < len(ranks); b++ {
				idx := transactions.TriIndex(n, ranks[a], ranks[b])
				if scratch[idx] == 0 {
					touched = append(touched, int32(idx))
				}
				scratch[idx]++
			}
		}
		for k, tree := range inc.trees {
			tree.CountTransactionInto(tx, off, c.bufs[k])
		}
	}
	c.triIdx = touched
	c.triCnt = make([]int32, len(touched))
	for i, idx := range touched {
		c.triCnt[i] = int32(scratch[idx])
		scratch[idx] = 0
	}
	inc.triScratch.Put(scratch)
	return c
}

// threshold re-derives the frequent set from the maintained totals. It
// reports ok=false with a reason when a candidate the new frequent set
// needs was never tracked (the border was crossed), in which case the
// caller must fall back to a full run.
func (inc *Incremental) threshold() (*Result, bool, string) {
	minCount := inc.store.AbsoluteSupport(inc.minSupport)
	res := &Result{MinCount: minCount, NumTx: inc.store.Len()}

	// Level 1 is always fully tracked: the pass-1 arrays cover the whole
	// item universe.
	level := thresholdItems(inc.itemTotals, minCount)
	res.Passes = append(res.Passes, PassStat{K: 1, Candidates: len(inc.itemTotals), Frequent: len(level)})
	if len(level) == 0 {
		return res, true, ""
	}
	res.Levels = append(res.Levels, level)

	// Level 2 from the triangular array — tracked only for items that were
	// frequent at the last rebuild (they have an L1 rank).
	if len(level) >= 2 {
		for _, ic := range level {
			item := ic.Items[0]
			if item >= len(inc.rank) || inc.rank[item] < 0 {
				return nil, false, fmt.Sprintf("item %d newly frequent: its pairs were never counted", item)
			}
		}
		n := len(inc.l1Items)
		var l2 []ItemsetCount
		for a := 0; a < len(level); a++ {
			for b := a + 1; b < len(level); b++ {
				i, j := inc.rank[level[a].Items[0]], inc.rank[level[b].Items[0]]
				if c := inc.triTotals[transactions.TriIndex(n, i, j)]; c >= minCount {
					l2 = append(l2, ItemsetCount{
						Items: transactions.Itemset{level[a].Items[0], level[b].Items[0]},
						Count: c,
					})
				}
			}
		}
		res.Passes = append(res.Passes, PassStat{K: 2, Candidates: len(level) * (len(level) - 1) / 2, Frequent: len(l2)})
		if len(l2) == 0 {
			return res, true, ""
		}
		res.Levels = append(res.Levels, l2)
		level = l2
	} else {
		return res, true, ""
	}

	// Levels 3+: candidate generation pruned to the tracked trees. Any
	// candidate outside a tree has an unknown count — border crossed.
	for k := 3; ; k++ {
		cands := aprioriGen(itemsetsOf(level))
		if len(cands) == 0 {
			return res, true, ""
		}
		idx := inc.treeIdx[k]
		totals := inc.treeTotals[k]
		if idx == nil {
			return nil, false, fmt.Sprintf("no tracked candidates of length %d", k)
		}
		level = level[:0:0]
		for _, cand := range cands {
			id, ok := idx[cand.Key()]
			if !ok {
				return nil, false, fmt.Sprintf("candidate %v of length %d was never counted", cand, k)
			}
			if c := totals[id]; c >= minCount {
				level = append(level, ItemsetCount{Items: cand, Count: c})
			}
		}
		res.Passes = append(res.Passes, PassStat{K: k, Candidates: len(cands), Frequent: len(level)})
		if len(level) == 0 {
			return res, true, ""
		}
		res.Levels = append(res.Levels, level)
	}
}

// rebuild runs a full mine over a snapshot at the slack-lowered tracking
// support, refreezes the tracked set (slack-frequent itemsets plus their
// negative border), re-counts every shard into fresh caches, and derives
// the exact result at the real support by re-thresholding — so the next
// update can merge clean-shard counts for free.
func (inc *Incremental) rebuild(ctx context.Context, stats *MaintainStats, reason string) (*Result, MaintainStats, error) {
	stats.FullRun = true
	stats.Reason = reason
	full, err := MineContext(ctx, inc.base(), inc.store.Snapshot(), inc.trackSupport())
	if err != nil {
		// The caches may already hold spliced-in fresh counts from the
		// recount that preceded this rebuild, and threshold() has decided
		// they cannot derive the answer. Drop the maintained state so the
		// next Maintain cannot take the nothing-changed fast path back to
		// the stale result — it must run this full mine again.
		inc.prev = nil
		return nil, *stats, err
	}

	// Freeze the tracked set: L1 ranks for the triangular pass-2 cache,
	// and one hash tree per length >= 3 holding F_k plus the border's
	// k-itemsets.
	inc.rank = make([]int, inc.store.NumItems())
	for i := range inc.rank {
		inc.rank[i] = -1
	}
	inc.l1Items = inc.l1Items[:0]
	if len(full.Levels) > 0 {
		for r, ic := range full.Levels[0] {
			inc.rank[ic.Items[0]] = r
			inc.l1Items = append(inc.l1Items, ic.Items[0])
		}
	}
	byLen := make(map[int][]transactions.Itemset)
	for _, lv := range full.Levels {
		for _, ic := range lv {
			if len(ic.Items) >= 3 {
				byLen[len(ic.Items)] = append(byLen[len(ic.Items)], ic.Items)
			}
		}
	}
	// Border itemsets of length >= 3 only: the triangle already tracks
	// every pair of ranked items, and generating the (often enormous)
	// level-2 border through aprioriGen would dwarf the full mine itself.
	if len(full.Levels) > 1 {
		for _, b := range negativeBorder(full.Levels[1:]) {
			byLen[len(b)] = append(byLen[len(b)], b)
		}
	}
	inc.trees = make(map[int]*hashtree.Tree, len(byLen))
	inc.treeIdx = make(map[int]map[string]int, len(byLen))
	inc.treeTotals = make(map[int][]int, len(byLen))
	for k, sets := range byLen {
		tree := hashtree.New(k)
		idx := make(map[string]int, len(sets))
		for _, s := range sets {
			e, err := tree.Insert(s)
			if err != nil {
				return nil, *stats, err
			}
			idx[s.Key()] = e.ID()
		}
		inc.trees[k] = tree
		inc.treeIdx[k] = idx
		inc.treeTotals[k] = make([]int, tree.Len())
	}

	// Reset totals and re-count every shard into the new structures.
	n := len(inc.l1Items)
	inc.itemTotals = make([]int, inc.store.NumItems())
	inc.triTotals = make([]int, n*(n-1)/2)
	inc.cache = make([]*shardCache, inc.store.NumShards())
	all := make([]int, inc.store.NumShards())
	for i := range all {
		all[i] = i
	}
	rebuildStats := MaintainStats{}
	if err := inc.recount(ctx, all, &rebuildStats); err != nil {
		// The tracked set was already refrozen and the caches reset: drop
		// the maintained state so the next Maintain runs a full mine
		// rather than thresholding half-built totals.
		inc.prev = nil
		return nil, *stats, err
	}
	stats.DirtyShards = len(all)
	stats.RecountedTx = rebuildStats.RecountedTx

	// The real-support answer is a threshold filter of the tracked set:
	// every itemset frequent at minSupport is frequent at the lowered
	// tracking support too, so threshold cannot miss here.
	res, ok, why := inc.threshold()
	if !ok {
		return nil, *stats, fmt.Errorf("assoc: internal: tracked set does not cover its own threshold: %s", why)
	}
	inc.prev = res
	return res, *stats, nil
}
