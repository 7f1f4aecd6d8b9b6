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
// array per level of tracked k-itemsets, k >= 3, in lexicographic order.
// It also records, as bitsets, which tracked pairs and itemsets were
// frequent at the tracking support: the seeds, the L_k that full run
// generated each C_{k+1} from. The store (transactions.ShardedDB) journals
// every mutation once the maintainer has attached, and after an update the
// maintainer:
//
//  1. drains the journal and counts only those transactions against the
//     tracked sets — an appended transaction adds to the totals, a deleted
//     one subtracts — so the work follows the size of the update, not the
//     size of the store or of its shards. Items and pairs splice straight
//     into their flat arrays; the tracked k-itemsets of every level are
//     counted serially, as one candidate list, by the block kernel of the
//     full runs (transactions.CountTids): each block of at most 4096 rows
//     is laid out once as tid-bitsets of the tracked items, and a tracked
//     itemset's delta is the popcount of its items' ANDed words;
//  2. re-thresholds the totals level by level: passes 1 and 2 off the flat
//     arrays, and from pass 3 on by filtering each tracked level. While the
//     border holds, aprioriGen(L_{k-1}) lies inside the tracked C_k, so L_k
//     is the tracked k-itemsets whose totals reach the support, and the
//     pass's candidate count is the tracked k-itemsets whose (k-1)-subsets
//     are all in L_{k-1} — the same pass statistics a scratch run reports;
//  3. falls back to a full re-mine when the border is crossed (some
//     candidate the new frequent set needs was never tracked, so its count
//     is unknown), when the store's mutation counter says the journal
//     missed a mutation, or when the delta has outgrown the live store. An
//     untracked candidate must contain a member of L_{k-1} that was no
//     seed — were all its subsets seeds, the full run generated it — so
//     the check looks only at those members' one-item supersets.
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
	"slices"

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
// lexicographic order, their exact supports, the seeds among them (the
// ones frequent at the tracking support at the last rebuild), and where
// each one's (k-1)-subsets sit in the tracked set, k slots per itemset:
// triangle slots for k = 3, positions in level k-1 beyond. totals and
// seeds are indexed by position in sets.
type trackedLevel struct {
	sets   []transactions.Itemset
	totals []int32
	seeds  *transactions.Bitset
	subs   []int32
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
	// Workers bounds how many goroutines share the scans of a local full
	// run; <= 1 scans serially. A delta is always counted serially, on the
	// calling goroutine. Results are identical either way.
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
	triBase    []int          // transactions.TriBases of the L1 ranks
	levels     []trackedLevel // tracked k-itemsets at index k-3
	itemTotals []int32
	triTotals  []int32
	pairSeeds  *transactions.Bitset     // triangle slots frequent at the tracking support at rebuild
	tracked    *transactions.Candidates // every level's sets, level after level, ranked for the delta count

	// Scratch reused by every delta count: the tracked itemsets' counts
	// over the added rows, flat across levels, then over the deleted ones.
	delta []int32

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
// the tracked sets of every level with the block kernel of the full runs
// (transactions.CountTids: one side's rows laid out and counted a block of
// at most 4096 at a time, against the frozen inc.tracked) into the delta
// scratch, and then, only once ctx is known not to be cancelled, splices
// totals += added − deleted. ctx is polled before every block, and once
// more before the splice. The item and pair totals need no buffers: they take the signed
// adds directly during the splice, which is serial and never polls ctx. On
// cancellation it returns ctx.Err() with every total untouched.
func (inc *Incremental) count(ctx context.Context, added, deleted []transactions.Itemset) error {
	n := inc.tracked.Len()
	inc.delta = slices.Grow(inc.delta[:0], 2*n)[:2*n]
	clear(inc.delta)
	for side, txs := range [2][]transactions.Itemset{added, deleted} {
		if err := transactions.CountTids(ctx, inc.tracked, txs, inc.delta[side*n:(side+1)*n]); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	off := 0
	for _, lv := range inc.levels {
		for id, c := range inc.delta[off : off+len(lv.sets)] {
			lv.totals[id] += c - inc.delta[n+off+id]
		}
		off += len(lv.sets)
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
func (inc *Incremental) spliceFlat(txs []transactions.Itemset, sign int32) {
	ranks := make([]int, 0, 64)
	for _, tx := range txs {
		ranks = ranks[:0]
		for _, item := range tx {
			inc.itemTotals[item] += sign
			if item < len(inc.rank) && inc.rank[item] >= 0 {
				ranks = append(ranks, inc.rank[item])
			}
		}
		for a, i := range ranks {
			row := inc.triBase[i]
			for _, j := range ranks[a+1:] {
				inc.triTotals[row+j] += sign
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
	level := thresholdTriangle(l1, inc.rank, len(inc.l1Items), inc.triTotals, minCount)
	emit(PassStat{K: 2, Candidates: len(l1) * (len(l1) - 1) / 2, Frequent: len(level)}, level)
	var risen []transactions.Itemset // the level's members that were no seed
	for _, ic := range level {
		if at, _ := inc.pair(ic.Items[0], ic.Items[1]); !inc.pairSeeds.Has(at) {
			risen = append(risen, ic.Items)
		}
	}

	// Levels 3+: with the border checked, L_k is the tracked C_k filtered
	// at minCount, in the tracked sets' lexicographic order.
	for k := 3; len(level) > 0; k++ {
		res.Levels = append(res.Levels, level)
		if err := inc.crossed(k, risen, l1, minCount); err != nil {
			return nil, err
		}
		if k-3 >= len(inc.levels) {
			break // nothing tracked, and crossed found no candidate
		}
		cands := inc.candidates(k, minCount)
		if cands == 0 {
			break
		}
		lv := inc.levels[k-3]
		level, risen = nil, risen[:0]
		for id, set := range lv.sets {
			if c := int(lv.totals[id]); c >= minCount {
				level = append(level, ItemsetCount{Items: set, Count: c})
				if !lv.seeds.Has(id) {
					risen = append(risen, set)
				}
			}
		}
		emit(PassStat{K: k, Candidates: cands, Frequent: len(level)}, level)
	}
	return res, nil
}

// crossed reports whether the border is crossed at level k: whether
// aprioriGen(L_{k-1}) holds a candidate the tracked set lacks. The last
// rebuild tracked exactly the k-itemsets whose (k-1)-subsets were all
// seeds, so the untracked candidates are exactly those with a subset in
// risen, the members of L_{k-1} that were no seed: the supersets Y ∪ {i}
// of a risen Y, i an item of l1, whose (k-1)-subsets all reach minCount.
// The error names the smallest, the one a merge-join of aprioriGen's
// sorted output against the tracked level would stop at.
func (inc *Incremental) crossed(k int, risen []transactions.Itemset, l1 []ItemsetCount, minCount int) error {
	var missing transactions.Itemset
	cand := make(transactions.Itemset, k)
	sub := make(transactions.Itemset, k-1)
	for _, y := range risen {
		for _, ic := range l1 {
			i := ic.Items[0]
			pos, found := slices.BinarySearch(y, i)
			if found {
				continue
			}
			copy(cand, y[:pos])
			cand[pos] = i
			copy(cand[pos+1:], y[pos:])
			if inc.subsetsFrequent(cand, sub, minCount) && (missing == nil || cand.Compare(missing) < 0) {
				missing = slices.Clone(cand)
			}
		}
	}
	switch {
	case missing == nil:
		return nil
	case k-3 >= len(inc.levels):
		return borderCrossed(fmt.Sprintf("no tracked candidates of length %d", k))
	default:
		return borderCrossed(fmt.Sprintf("candidate %v of length %d was never counted", missing, k))
	}
}

// candidates returns |aprioriGen(L_{k-1})| given that the border holds at
// level k: the number of tracked k-itemsets whose (k-1)-subsets, read at
// the slots the last rebuild recorded, all reach minCount.
func (inc *Incremental) candidates(k, minCount int) int {
	lv, prev := inc.levels[k-3], inc.levelTotals(k-1)
	n := 0
next:
	for id := range lv.sets {
		for _, at := range lv.subs[id*k : (id+1)*k] {
			if int(prev[at]) < minCount {
				continue next
			}
		}
		n++
	}
	return n
}

// subsetsFrequent reports whether every (k-1)-subset of the k-itemset set
// is tracked with a total of at least minCount; sub is scratch of length
// k-1.
func (inc *Incremental) subsetsFrequent(set, sub transactions.Itemset, minCount int) bool {
	totals := inc.levelTotals(len(sub))
	for drop := range set {
		copy(sub, set[:drop])
		copy(sub[drop:], set[drop+1:])
		if at, ok := inc.slot(sub); !ok || int(totals[at]) < minCount {
			return false
		}
	}
	return true
}

// levelTotals returns the running totals of the tracked itemsets of length
// k >= 2, indexed by slot: the triangle for pairs, the level's beyond.
func (inc *Incremental) levelTotals(k int) []int32 {
	if k == 2 {
		return inc.triTotals
	}
	return inc.levels[k-3].totals
}

// slot returns where the itemset s (two or more items) sits in the tracked
// set — its triangle slot for a pair, its position in its level beyond,
// found by binary search — with ok false when s was never tracked.
func (inc *Incremental) slot(s transactions.Itemset) (int, bool) {
	if len(s) == 2 {
		return inc.pair(s[0], s[1])
	}
	if len(s)-3 >= len(inc.levels) {
		return 0, false
	}
	return slices.BinarySearchFunc(inc.levels[len(s)-3].sets, s, transactions.Itemset.Compare)
}

// subsetSlots returns the slots of the (k-1)-subsets of each of the
// tracked k-itemsets sets, k per set in order of the dropped item: the
// table candidates reads. Every such subset is tracked, being a seed.
func (inc *Incremental) subsetSlots(sets []transactions.Itemset) []int32 {
	if len(sets) == 0 {
		return nil
	}
	k := len(sets[0])
	slots := make([]int32, 0, len(sets)*k)
	sub := make(transactions.Itemset, k-1)
	for _, set := range sets {
		for drop := range set {
			copy(sub, set[:drop])
			copy(sub[drop:], set[drop+1:])
			at, _ := inc.slot(sub)
			slots = append(slots, int32(at))
		}
	}
	return slots
}

// pair returns the triangle slot of the items a < b, with ok false when
// either has no L1 rank (the pair was never tracked).
func (inc *Incremental) pair(a, b int) (at int, ok bool) {
	if a >= len(inc.rank) || b >= len(inc.rank) || inc.rank[a] < 0 || inc.rank[b] < 0 {
		return 0, false
	}
	return inc.triBase[inc.rank[a]] + inc.rank[b], true
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
	var src scanSource = scanLocal(snap, numItems, inc.Workers)
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
	// triangle is empty), the counted C_k of every later pass, and the
	// seeds of each, those frequent at the tracking support.
	var l1 []ItemsetCount
	if len(full.Levels) > 0 {
		l1 = full.Levels[0]
	}
	inc.rank = l1Ranks(l1, numItems)
	inc.l1Items = inc.l1Items[:0]
	for _, ic := range l1 {
		inc.l1Items = append(inc.l1Items, ic.Items[0])
	}
	inc.triBase = transactions.TriBases(len(inc.l1Items))
	inc.itemTotals, inc.triTotals, inc.levels = keep.items, keep.pairs, keep.levels
	inc.pairSeeds = seedsOf(inc.triTotals, minCount)
	var all []transactions.Itemset
	for i := range inc.levels {
		lv := &inc.levels[i]
		lv.seeds = seedsOf(lv.totals, minCount)
		lv.subs = inc.subsetSlots(lv.sets)
		all = append(all, lv.sets...)
	}
	var err error
	if inc.tracked, err = transactions.NewCandidates(all, numItems); err != nil {
		return nil, *stats, err
	}
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

// seedsOf marks the totals that reach minCount.
func seedsOf(totals []int32, minCount int) *transactions.Bitset {
	seeds := transactions.NewBitset(len(totals))
	for i, c := range totals {
		if int(c) >= minCount {
			seeds.Set(i)
		}
	}
	return seeds
}

// keepScans is the full run's scanSource: it forwards every scan to the
// local or remote source and keeps what the level-wise driver counts. The
// pass-1 array becomes the item totals, the pass-2 triangle the pair
// totals, and each pass k >= 3 a trackedLevel of its candidates C_k
// (aprioriGen's output, already sorted) with their counts.
type keepScans struct {
	scanSource
	items, pairs []int32
	levels       []trackedLevel
}

func (k *keepScans) countItems(ctx context.Context) ([]int32, error) {
	counts, err := k.scanSource.countItems(ctx)
	k.items = counts
	return counts, err
}

func (k *keepScans) countPairs(ctx context.Context, rank []int, n int) ([]int32, error) {
	counts, err := k.scanSource.countPairs(ctx, rank, n)
	k.pairs = counts
	return counts, err
}

// countCandidates keeps the counted C_k, with its counts as the totals, as
// the next tracked level; its seeds and subset slots come at the freeze.
func (k *keepScans) countCandidates(ctx context.Context, size int, cands []transactions.Itemset) ([]int32, error) {
	counts, err := k.scanSource.countCandidates(ctx, size, cands)
	if err != nil {
		return nil, err
	}
	k.levels = append(k.levels, trackedLevel{sets: cands, totals: counts})
	return counts, nil
}
