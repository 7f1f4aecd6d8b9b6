package assoc

// FUP-style incremental maintenance of a mined frequent set under
// appends and deletes (Cheung et al., ICDE'96 — the update-time
// counterpart of the SIGMOD'96 tutorial's level-wise miners).
//
// At every full run the maintainer freezes a tracked candidate set: the
// level-wise candidate sets at a slack-lowered tracking support, C_1 (the
// whole item universe), C_2 (every pair of L_1) and C_k = aprioriGen(L_{k-1})
// for k >= 3. C_k is L_k plus the negative border's k-itemsets, so
// near-threshold itemsets are already covered. From then on it keeps one
// exact running total per tracked count: the flat pass-1 item array, the
// triangular pass-2 pair array over the full run's L1 ranks, and one totals
// array per hash tree of tracked k-itemsets, k >= 3. The store
// (transactions.ShardedDB) journals every mutation once the maintainer has
// attached, and after an update the maintainer:
//
//  1. drains the journal and counts only those transactions against the
//     tracked structures — an appended transaction adds to the totals, a
//     deleted one subtracts — so the work follows the size of the update,
//     not the size of the store or of its shards; the hash trees count
//     with the local scans' own pass-k scan;
//  2. re-thresholds the totals level by level: passes 1 and 2 off the flat
//     arrays, and from pass 3 on the level-wise miners' own loop
//     (levelsFrom3), whose count step is a merge-join of each sorted
//     candidate set against the sorted tracked itemsets;
//  3. falls back to a full re-mine when the border is crossed (some
//     candidate the new frequent set needs was never tracked, so its count
//     is unknown), when the store's mutation counter says the journal
//     missed a mutation, or when the delta has outgrown the live store.
//
// A full run is one level-wise mine of the store at the tracking support,
// over local scans or, with Remote, the cluster's: the driver's own pass
// counts become the totals, so nothing is counted twice. Because every
// tracked count is exact (integer addition is invertible, and each mutation
// is journalled and counted exactly once), the maintained result is
// byte-identical to a from-scratch run at every step; the property tests
// verify this across randomized append/delete sequences.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// ErrNotAttached reports Maintain before Attach.
var ErrNotAttached = errors.New("assoc: incremental miner not attached to a store")

// MaintainStats describes the work one Maintain call did.
type MaintainStats struct {
	NumShards   int    // shards in the store
	DirtyShards int    // shards the update touched (version changed or new); all of them on a full run
	RecountedTx int    // transactions counted: the journalled delta, or every live one on a full run
	FullRun     bool   // true when the update fell back to a full re-mine
	Reason      string // why the full run happened; "" when incremental
}

// trackedLevel is the tracked k-itemsets of one length k >= 3 (the full
// run's C_k: frequent at the tracking support, plus the border) in
// lexicographic order, the hash tree that counts them and their exact
// supports. Tree entry ids and totals are both indexed by position in sets.
type trackedLevel struct {
	sets   []transactions.Itemset
	tree   *hashtree.Tree
	totals []int
}

// borderCrossed is threshold's one error: a candidate the new frequent set
// needs has no tracked count (the negative border was crossed), so only a
// full run can answer. Its text is that run's MaintainStats.Reason.
type borderCrossed string

// Error implements error.
func (b borderCrossed) Error() string { return string(b) }

// Incremental maintains the frequent itemsets of a ShardedDB across
// appends and deletes by counting only the journalled delta (see the
// package comment above). Attach runs the initial full mine, which counts
// the tracked set; Maintain brings the result up to date after mutations.
type Incremental struct {
	// Remote, when set, runs the full runs' scans (Attach and
	// border-crossing fallbacks) on its cluster, level-wise whatever its
	// Engine: the store's shards are synced under their version stamps, so
	// only dirty ones re-ship, and a lost cluster degrades to local scans.
	// nil scans locally with Workers.
	Remote *Distributed
	// Workers bounds how many goroutines share the counting of one delta
	// (or of the whole store on a local full run); <= 1 counts serially.
	// Results are identical either way.
	Workers int
	// TrackSlack lowers the support at which the tracked candidate set is
	// frozen: full runs count at minSupport*TrackSlack, so itemsets near the
	// threshold already have tracked counts and small updates that nudge
	// them across it stay incremental (the same slack idea as Toivonen's
	// lowered sample threshold). Results are exact regardless — slack only
	// trades tracked-set memory against fallback frequency. 0 means the
	// default 0.8; 1 tracks exactly the frequent set and its border.
	TrackSlack float64

	hook       PassHook
	store      *transactions.ShardedDB
	minSupport float64

	// Tracked candidate set, frozen at the last rebuild, with the running
	// totals the deltas are spliced into.
	rank       []int          // item id -> L1 rank at rebuild, -1 if not frequent then
	l1Items    []int          // rank -> item id
	levels     []trackedLevel // tracked k-itemsets at index k-3
	itemTotals []int
	triTotals  []int

	// The delta the totals do not cover yet: drained from the store's
	// journal, and kept across a cancelled Maintain for the next one.
	added, deleted []transactions.Itemset
	// counted is the store's mutation count the totals are exact through;
	// counted + the pending delta must equal store.Mutations(), or the
	// journal missed something.
	counted uint64
	// versions are the shard version stamps at the last successful
	// Maintain; they only feed MaintainStats.DirtyShards.
	versions []uint64

	prev *Result
}

// SetPassHook registers h to observe every counting pass of the full runs
// (at the tracking support); a maintain that stays incremental counts no
// pass and reports none.
func (inc *Incremental) SetPassHook(h PassHook) { inc.hook = h }

// trackSupport returns the lowered support the tracked set is frozen at.
func (inc *Incremental) trackSupport() float64 {
	slack := inc.TrackSlack
	if slack <= 0 || slack > 1 {
		slack = 0.8
	}
	return inc.minSupport * slack
}

// Attach binds the maintainer to a store, runs the initial full mine at
// minSupport and counts the tracked set. It returns the initial result;
// the stats report a full run over every shard. The store journals its
// mutations from here on, until Detach or the next Attach.
func (inc *Incremental) Attach(store *transactions.ShardedDB, minSupport float64) (*Result, MaintainStats, error) {
	return inc.AttachContext(context.Background(), store, minSupport)
}

// AttachContext is Attach with the initial full mine under ctx.
func (inc *Incremental) AttachContext(ctx context.Context, store *transactions.ShardedDB, minSupport float64) (*Result, MaintainStats, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, MaintainStats{}, fmt.Errorf("%w: %v", ErrBadSupport, minSupport)
	}
	inc.Detach()
	inc.store = store
	inc.minSupport = minSupport
	store.Track()
	return inc.MaintainContext(ctx)
}

// Detach ends the maintainer's tracking: the store stops journalling and
// Maintain reports ErrNotAttached until the next Attach. A maintainer that
// was never attached detaches to no effect.
func (inc *Incremental) Detach() {
	if inc.store != nil {
		inc.store.Untrack()
	}
	inc.store, inc.prev = nil, nil
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

// Maintain brings the frequent set up to date with the store: the
// journalled delta is counted into the totals, the totals are
// re-thresholded, and a full re-mine runs only when the tracked border no
// longer covers the answer or the journal cannot account for the store.
func (inc *Incremental) Maintain() (*Result, MaintainStats, error) {
	return inc.MaintainContext(context.Background())
}

// MaintainContext is Maintain under ctx. A cancelled maintain returns
// ctx.Err() before anything is spliced into the totals and keeps the
// drained delta pending, so the maintainer's state stays exactly what it
// was and the next call counts that delta (plus whatever arrived since)
// once — except when the cancellation lands inside a full rebuild, which
// has already dropped the maintained state; the next call then runs a
// fresh full mine instead of trusting half-built totals.
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

	added, deleted := inc.store.Drain()
	inc.added = append(inc.added, added...)
	inc.deleted = append(inc.deleted, deleted...)
	delta := len(inc.added) + len(inc.deleted)
	switch {
	case inc.counted+uint64(delta) != inc.store.Mutations():
		return inc.rebuild(ctx, &stats, fmt.Sprintf("journal incomplete: %d mutations since the last maintain, %d journalled",
			inc.store.Mutations()-inc.counted, delta))
	case delta == 0:
		// Nothing changed: same transactions, same threshold, same answer.
		return inc.prev, stats, nil
	case delta > inc.store.Len():
		return inc.rebuild(ctx, &stats, fmt.Sprintf("delta of %d transactions outgrew the %d live ones", delta, inc.store.Len()))
	}
	stats.DirtyShards = inc.dirtyShards()
	if err := inc.count(ctx, inc.added, inc.deleted); err != nil {
		return nil, stats, err
	}
	stats.RecountedTx = delta
	inc.settle()

	res, err := inc.threshold()
	if err != nil {
		return inc.rebuild(ctx, &stats, err.Error())
	}
	inc.prev = res
	return res, stats, nil
}

// dirtyShards counts the shards whose version moved since the last
// successful Maintain (or that did not exist then).
func (inc *Incremental) dirtyShards() int {
	dirty := 0
	for i := 0; i < inc.store.NumShards(); i++ {
		if i >= len(inc.versions) || inc.versions[i] != inc.store.Version(i) {
			dirty++
		}
	}
	return dirty
}

// settle records that the totals now cover the store as it stands: no
// pending delta, the current mutation count, the current shard versions.
func (inc *Incremental) settle() {
	inc.added, inc.deleted = nil, nil
	inc.counted = inc.store.Mutations()
	inc.versions = inc.versions[:0]
	for i := 0; i < inc.store.NumShards(); i++ {
		inc.versions = append(inc.versions, inc.store.Version(i))
	}
}

// count is the delta's counting routine. It counts added and deleted into
// every tracked hash tree with the local scans' pass-k scan (countTree) and
// then — only once ctx is known not to be cancelled — splices totals +=
// added − deleted. The item and pair
// totals need no buffers: they take the signed adds directly during the
// splice, which is serial and never polls ctx. On cancellation it returns
// ctx.Err() with every total untouched.
func (inc *Incremental) count(ctx context.Context, added, deleted []transactions.Itemset) error {
	delta := make([][2][]int, len(inc.levels)) // level -> added, deleted counts by entry id
	for side, txs := range [2][]transactions.Itemset{added, deleted} {
		if len(txs) == 0 {
			continue
		}
		scans := localScans{db: &transactions.DB{Transactions: txs}, workers: inc.Workers}
		for i, lv := range inc.levels {
			var err error
			if delta[i][side], err = scans.countTree(ctx, lv.tree); err != nil {
				return err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, lv := range inc.levels {
		for id, c := range delta[i][0] {
			lv.totals[id] += c
		}
		for id, c := range delta[i][1] {
			lv.totals[id] -= c
		}
	}
	// NumItems is monotone, so existing slots keep their counts.
	for len(inc.itemTotals) < inc.store.NumItems() {
		inc.itemTotals = append(inc.itemTotals, 0)
	}
	inc.spliceFlat(added, +1)
	inc.spliceFlat(deleted, -1)
	return nil
}

// spliceFlat adds sign per occurrence of txs' items and ranked pairs into
// the pass-1 and triangular totals. It stays apart from
// transactions.CountItems/CountPairs because those only count up.
func (inc *Incremental) spliceFlat(txs []transactions.Itemset, sign int) {
	n := len(inc.l1Items)
	ranks := make([]int, 0, 64)
	for _, tx := range txs {
		ranks = ranks[:0]
		for _, item := range tx {
			inc.itemTotals[item] += sign
			if item < len(inc.rank) && inc.rank[item] >= 0 {
				ranks = append(ranks, inc.rank[item])
			}
		}
		for a := 0; a < len(ranks); a++ {
			for b := a + 1; b < len(ranks); b++ {
				inc.triTotals[transactions.TriIndex(n, ranks[a], ranks[b])] += sign
			}
		}
	}
}

// threshold re-derives the frequent set from the maintained totals. Its
// one error is a borderCrossed, returned when a candidate the new
// frequent set needs was never tracked, in which case the caller must
// fall back to a full run.
func (inc *Incremental) threshold() (*Result, error) {
	minCount := inc.store.AbsoluteSupport(inc.minSupport)
	res := &Result{MinCount: minCount, NumTx: inc.store.Len()}
	emit := func(stat PassStat, level []ItemsetCount) { res.addPass(nil, stat, level) }

	// Level 1 is always fully tracked: the pass-1 arrays cover the whole
	// item universe.
	l1 := thresholdItems(inc.itemTotals, minCount)
	emit(PassStat{K: 1, Candidates: len(inc.itemTotals), Frequent: len(l1)}, l1)
	if len(l1) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, l1)
	if len(l1) == 1 {
		return res, nil
	}

	// Level 2 from the triangular array — tracked only for items that were
	// frequent at the last rebuild (they have an L1 rank).
	for _, ic := range l1 {
		item := ic.Items[0]
		if item >= len(inc.rank) || inc.rank[item] < 0 {
			return nil, borderCrossed(fmt.Sprintf("item %d newly frequent: its pairs were never counted", item))
		}
	}
	l2 := thresholdTriangle(l1, inc.rank, len(inc.l1Items), inc.triTotals, minCount)
	emit(PassStat{K: 2, Candidates: len(l1) * (len(l1) - 1) / 2, Frequent: len(l2)}, l2)

	// Levels 3+: the miners' own loop, counting by lookup in the tracked
	// totals. It runs under a context nothing can cancel, because the
	// totals it reads are already spliced: giving up here would throw away
	// an update the maintainer has already absorbed.
	if err := levelsFrom3(context.Background(), l2, aprioriGen(itemsetsOf(l2)), minCount, res, emit, inc.lookup); err != nil {
		return nil, err
	}
	return res, nil
}

// lookup is threshold's countFunc: the supports of cands, sorted like the
// tracked level they are merge-joined against, read off the maintained
// totals. A candidate outside the tracked set has an unknown count — the
// border was crossed — and fails the lookup with a borderCrossed.
func (inc *Incremental) lookup(_ context.Context, k int, cands []transactions.Itemset) ([]int, error) {
	if k-3 >= len(inc.levels) {
		return nil, borderCrossed(fmt.Sprintf("no tracked candidates of length %d", k))
	}
	lv := inc.levels[k-3]
	counts := make([]int, len(cands))
	j := 0
	for i, cand := range cands {
		c := -1
		for ; j < len(lv.sets); j++ {
			if c = lv.sets[j].Compare(cand); c >= 0 {
				break
			}
		}
		if c != 0 {
			return nil, borderCrossed(fmt.Sprintf("candidate %v of length %d was never counted", cand, k))
		}
		counts[i] = lv.totals[j]
	}
	return counts, nil
}

// rebuild is the full run: one level-wise mine of a snapshot at the
// slack-lowered tracking support, whose pass counts (kept by keepScans)
// become the tracked set and its totals, and then derives the exact result
// at the real support by re-thresholding.
func (inc *Incremental) rebuild(ctx context.Context, stats *MaintainStats, reason string) (*Result, MaintainStats, error) {
	stats.FullRun = true
	stats.Reason = reason
	// The totals are about to be replaced (and threshold() may just have
	// found them unable to derive the answer), and the full run counts the
	// live store, not the journal. Drop the maintained state first, so a
	// rebuild that fails anywhere below leaves a maintainer whose next
	// Maintain runs this full mine again rather than trusting stale or
	// half-built totals.
	inc.prev = nil
	inc.store.Drain()
	inc.added, inc.deleted = nil, nil
	snap := inc.store.Snapshot()
	numItems := inc.store.NumItems()
	var src scanSource = localScans{db: snap, numItems: numItems, workers: inc.Workers}
	if inc.Remote != nil {
		remote, err := inc.Remote.storeScans(ctx, inc.store, snap)
		if err != nil {
			return nil, *stats, err
		}
		src = remote
	}
	keep := &keepScans{scanSource: src}
	minCount := snap.AbsoluteSupport(inc.trackSupport())
	full := &Result{MinCount: minCount, NumTx: snap.Len()}
	emit := func(stat PassStat, level []ItemsetCount) {
		stat.Degraded = inc.Remote != nil && inc.Remote.Degraded()
		full.addPass(inc.hook, stat, level)
	}
	if err := levelwise(ctx, keep, minCount, full, emit); err != nil {
		return nil, *stats, err
	}

	// Freeze the tracked set: L1 ranks for the triangular pass-2 totals
	// (countPairs ran only with two or more frequent items; otherwise the
	// triangle is empty), and the counted C_k of every later pass.
	var l1 []ItemsetCount
	if len(full.Levels) > 0 {
		l1 = full.Levels[0]
	}
	inc.rank = l1Ranks(l1, numItems)
	inc.l1Items = inc.l1Items[:0]
	for _, ic := range l1 {
		inc.l1Items = append(inc.l1Items, ic.Items[0])
	}
	inc.itemTotals, inc.triTotals, inc.levels = keep.items, keep.pairs, keep.levels
	inc.settle()
	stats.DirtyShards = stats.NumShards
	stats.RecountedTx = len(snap.Transactions)

	// The real-support answer is a threshold filter of the tracked set:
	// every itemset frequent at minSupport is frequent at the lowered
	// tracking support too, so threshold cannot miss here.
	res, err := inc.threshold()
	if err != nil {
		return nil, *stats, fmt.Errorf("assoc: internal: tracked set does not cover its own threshold: %w", err)
	}
	inc.prev = res
	return res, *stats, nil
}

// keepScans is the full run's scanSource: it forwards every scan to the
// local or remote source and keeps what the level-wise driver counts. The
// pass-1 array becomes the item totals, the pass-2 triangle the pair
// totals, and each pass k >= 3 a trackedLevel of its candidates C_k
// (aprioriGen's output, already sorted) with their counts.
type keepScans struct {
	scanSource
	items, pairs []int
	levels       []trackedLevel
}

func (k *keepScans) countItems(ctx context.Context) ([]int, error) {
	counts, err := k.scanSource.countItems(ctx)
	k.items = counts
	return counts, err
}

func (k *keepScans) countPairs(ctx context.Context, rank []int, n int) ([]int, error) {
	counts, err := k.scanSource.countPairs(ctx, rank, n)
	k.pairs = counts
	return counts, err
}

// countCandidates also builds the level's hash tree, which the maintainer
// keeps to count deltas with. (A local scan builds its own for the full
// run; the second build is well under 1 % of a full run: 0.3-0.6 ms of
// 340 ms on an 80k-row T10.I4 store at 0.2 % support, two cores.)
func (k *keepScans) countCandidates(ctx context.Context, size int, cands []transactions.Itemset) ([]int, error) {
	counts, err := k.scanSource.countCandidates(ctx, size, cands)
	if err != nil {
		return nil, err
	}
	tree, err := hashtree.Build(size, cands)
	if err != nil {
		return nil, err
	}
	k.levels = append(k.levels, trackedLevel{sets: cands, tree: tree, totals: counts})
	return counts, nil
}
