// Package assoc is the production core of frequent-itemset mining: the
// engines the mining facade reaches and what they share.
//
//   - Apriori (Agrawal & Srikant, VLDB'94): level-wise candidate
//     generation and counting
//   - Eclat (Zaki et al.): bitset tid-set intersections in the vertical
//     layout
//   - FPGrowth: candidate-free pattern growth over internal/fptree
//   - Auto: shares passes 1 and 2, then finishes level-wise or by pattern
//     growth as the measured C3 favours
//   - Distributed: the same drivers over a dist.Coordinator's workers,
//     reached only through the facade's Transport option
//
// plus confidence/lift rule generation (the ap-genrules procedure) and
// FUP-style incremental maintenance (Incremental) over an updatable
// sharded store. The survey's first-generation miners — AIS, SETM,
// AprioriTid, AprioriHybrid, Partition and Sampling — live in
// internal/assoc/reference, which builds them from this package's exported
// names and counts with the same kernels.
//
// All engines produce identical frequent-itemset results on the same
// input — a property the test suite checks — and differ only in how much
// work they do. The level-wise miners walk the rows once per pass up to
// pass 2 and once more at C3, where each shard's rows are laid out as
// per-item lists of row offsets in blocks of 4096 (transactions.Layout);
// from then on a pass costs O(its items' occurrences) to set their
// tid-bitsets from those lists plus O(|D|/64 × |C_k|) words to AND them
// per candidate, where the VLDB'94 papers walk a candidate hash tree per
// transaction and pass. Eclat replaces rescans with bitset tid-set
// intersections over the whole database, O(|D|/64) words per candidate.
//
// The level-wise loop and the pattern-growth sequence are each written
// once (levelwise in apriori.go, growth in fpgrowth.go) against scanSource,
// a four-method seam naming the database scans a mine needs: pass-1 item
// counts, the triangular pass-2 pair array, the pass-k candidate count and
// the FP-tree build. Pass k >= 3 is one loop (levelsFrom3) over the scan
// source, and every candidate count runs the one tid-bitset block kernel
// (transactions.Layout over a local mine's shards, CountTids for a list
// counted once); the incremental maintainer's full runs are this same
// loop, whose pass counts become its tracked totals, and its delta counts
// with the same kernel.
// Where the scans run is the only thing that differs between engines:
// Apriori and FPGrowth run them on this process's goroutines (localScans,
// parallel.go), Distributed sends them to a dist.Coordinator (remoteScans,
// distributed.go), and a distributed mine that loses its whole cluster
// degrades by switching to the local scans for the rest of the mine.
// Below the seam every scan follows the shard/count/merge contract: the
// database splits into contiguous shards, each shard fills a private
// counting structure through kernels that have one definition for every
// caller (transactions.CountItems, CountPairs, Layout and CountTids,
// fptree.Build), and merging is commutative integer addition — for the
// count arrays a fold after the scan (the local pass-2 triangle is shared
// instead, each worker counting a band of its rows), for the FP-trees the sums
// fptree.Forest takes over its trees' header chains while projecting — so
// distributed, parallel, degraded and incremental counts are all
// bit-identical to a serial scan. The incremental maintainer adds one more
// consequence: integer addition is invertible, so a deleted transaction's
// counts can be subtracted back out and only the transactions an update
// added or deleted are ever scanned.
//
// Every Miner honours context cancellation: hot loops poll the context
// every ctxStride transactions, so MineContext returns promptly without
// goroutine leaks. The four engines Registered lists and Distributed are
// Engines: they additionally report each completed pass to a hook and
// take a worker count, which is what the public mining package builds its
// progress, streaming and Workers features on. This package stays
// internal; programs use the module-root mining facade.
package assoc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/transactions"
)

// ItemsetCount pairs a frequent itemset with its absolute support.
type ItemsetCount struct {
	Items transactions.Itemset
	Count int
}

// PassStat records the work of one level-wise pass.
type PassStat struct {
	K          int // itemset length of the pass
	Candidates int // candidates counted in the pass
	Frequent   int // candidates that met minimum support
	// Degraded marks a pass the distributed engine ran on its local scans
	// after losing every worker — the counts are still exact, but nothing
	// ran remotely. Local engines never set it.
	Degraded bool
}

// Result is the output of any miner in this package.
type Result struct {
	MinCount int // absolute minimum support used
	NumTx    int // transactions in the mined database
	// Levels[k-1] holds the frequent k-itemsets in lexicographic order.
	Levels [][]ItemsetCount
	Passes []PassStat
}

// Errors shared by the miners.
var (
	ErrBadSupport = errors.New("assoc: minimum support must be in (0, 1]")
	ErrEmptyDB    = errors.New("assoc: empty transaction database")
)

// Miner is the common interface of all association miners. MineContext
// returns ctx.Err() promptly (within one counting stride or one pass
// fan-out, whichever is shorter) once ctx is done, leaking no goroutines;
// Mine is MineContext under context.Background().
type Miner interface {
	// Name identifies the algorithm, e.g. "Apriori".
	Name() string
	// Mine finds all itemsets with relative support >= minSupport.
	Mine(db *transactions.DB, minSupport float64) (*Result, error)
	// MineContext is Mine under ctx.
	MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error)
}

// MineContext mines db with m under ctx: the function form of the method,
// kept for callers that hold the engine as a value (bench/).
func MineContext(ctx context.Context, m Miner, db *transactions.DB, minSupport float64) (*Result, error) {
	return m.MineContext(ctx, db, minSupport)
}

// PassHook observes a completed counting pass: stat describes the pass and
// level holds its frequent itemsets in canonical order. Engines pass a nil
// level when the pass's itemsets are not final at emission time (pattern
// growth and Eclat assemble levels only at the end) — consumers must treat
// a nil level as "read it from the final Result". Hooks run on the
// engine's coordinating goroutine, never concurrently with themselves.
type PassHook func(stat PassStat, level []ItemsetCount)

// Engine is the contract of the registered engines, the one the public
// mining package programs against: a Miner that reports each completed
// pass to a hook (progress and result streaming) and whose scans can be
// spread over n goroutines with byte-identical results (n <= 1 is serial).
// Both setters take effect from the next Mine.
type Engine interface {
	Miner
	SetPassHook(PassHook)
	SetWorkers(n int)
}

// addPass records a completed pass on r and notifies hook, the single
// emission point every Engine routes through so pass stats and hook events
// cannot diverge.
func (r *Result) addPass(hook PassHook, stat PassStat, level []ItemsetCount) {
	r.Passes = append(r.Passes, stat)
	if hook != nil {
		hook(stat, level)
	}
}

// NumFrequent returns the total number of frequent itemsets.
func (r *Result) NumFrequent() int {
	n := 0
	for _, level := range r.Levels {
		n += len(level)
	}
	return n
}

// MaxLevel returns the length of the longest frequent itemset.
func (r *Result) MaxLevel() int { return len(r.Levels) }

// Support returns the absolute support of s if s is frequent: a binary
// search of the sorted level of its length. It only reads r, so any
// number of goroutines may call it on a published Result.
func (r *Result) Support(s transactions.Itemset) (int, bool) {
	if len(s) == 0 || len(s) > len(r.Levels) {
		return 0, false
	}
	level := r.Levels[len(s)-1]
	i, ok := slices.BinarySearchFunc(level, s, func(ic ItemsetCount, s transactions.Itemset) int {
		return ic.Items.Compare(s)
	})
	if !ok {
		return 0, false
	}
	return level[i].Count, true
}

// Canonical returns a deterministic byte encoding of the frequent levels
// (one "items:count" line per itemset, in level then lexicographic order,
// items comma-separated). Two results encode identically iff they found
// the same itemsets with the same supports, which is how the
// incremental-maintenance property tests and dmine's -verify mode check
// byte-identity against a from-scratch run. The bytes are appended into
// one buffer sized exactly up front.
func (r *Result) Canonical() []byte {
	size := 0
	for _, level := range r.Levels {
		for _, ic := range level {
			size += decimalLen(ic.Count) + 2 // ':' count '\n'
			for i, item := range ic.Items {
				if i > 0 {
					size++ // ','
				}
				size += decimalLen(item)
			}
		}
	}
	if size == 0 {
		return nil
	}
	out := make([]byte, 0, size)
	for _, level := range r.Levels {
		for _, ic := range level {
			for i, item := range ic.Items {
				if i > 0 {
					out = append(out, ',')
				}
				out = strconv.AppendInt(out, int64(item), 10)
			}
			out = append(out, ':')
			out = strconv.AppendInt(out, int64(ic.Count), 10)
			out = append(out, '\n')
		}
	}
	return out
}

// decimalLen is the number of decimal digits of v >= 0.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// checkInput validates the shared Mine preconditions and returns the
// absolute support count.
func checkInput(db *transactions.DB, minSupport float64) (int, error) {
	if minSupport <= 0 || minSupport > 1 {
		return 0, fmt.Errorf("%w: %v", ErrBadSupport, minSupport)
	}
	if db == nil || db.Len() == 0 {
		return 0, ErrEmptyDB
	}
	return db.AbsoluteSupport(minSupport), nil
}

// emptyResult is the canonical degenerate Result every miner returns
// alongside a checkInput error (empty database, out-of-range support):
// zero-valued, no levels, no passes, Canonical() == "". Degenerate inputs
// thus behave identically across engines — callers that test the error get
// the usual sentinel, and callers that only read the Result get a usable
// empty one instead of a nil dereference. The cross-engine degenerate
// table test pins this contract.
func emptyResult() *Result { return &Result{} }

// sortLevel orders a level lexicographically in place.
func sortLevel(level []ItemsetCount) {
	slices.SortFunc(level, func(a, b ItemsetCount) int { return a.Items.Compare(b.Items) })
}

// AprioriGen exposes the VLDB'94 candidate generation for reuse by the
// sequential-pattern miners (AprioriAll's litemset phase uses the same
// join/prune step) and the reference engines. prev must be sorted
// lexicographically.
func AprioriGen(prev []transactions.Itemset) []transactions.Itemset {
	return aprioriGen(prev)
}

// aprioriGen implements the VLDB'94 candidate generation: the self-join of
// L_{k-1} on the first k-2 items, followed by the subset-pruning step that
// removes candidates with an infrequent (k-1)-subset. prev must be sorted
// lexicographically. The returned candidates are sorted.
func aprioriGen(prev []transactions.Itemset) []transactions.Itemset {
	cands, _ := aprioriGenUpTo(prev, math.MaxInt)
	return cands
}

// aprioriGenUpTo is aprioriGen that gives up, reporting false, as soon as
// more than limit candidates pass the prune — how Auto measures C3 without
// paying for a whole generation it would throw away.
func aprioriGenUpTo(prev []transactions.Itemset, limit int) ([]transactions.Itemset, bool) {
	if len(prev) == 0 {
		return nil, true
	}
	k := len(prev[0]) + 1
	cand := make(transactions.Itemset, k)
	sub := make(transactions.Itemset, 0, k-1)
	var cands []transactions.Itemset
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			a, b := prev[i], prev[j]
			if !samePrefix(a, b, k-2) {
				break // prev is sorted: once prefixes diverge, no more joins for i
			}
			// Join: a ++ last(b); a < b lexicographically so order holds.
			copy(cand, a)
			cand[k-1] = b[k-2]
			if !hasAllSubsetsFrequent(cand, prev, sub) {
				continue
			}
			if len(cands) == limit {
				return nil, false
			}
			cands = append(cands, slices.Clone(cand))
		}
	}
	return cands, true
}

func samePrefix(a, b transactions.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasAllSubsetsFrequent checks the Apriori prune: every (k-1)-subset of
// cand must be in prev, which is sorted. Dropping either of the last two
// items gives one of the joined generators, a member by construction, so
// only the other subsets are looked up — by binary search, built in sub,
// with no allocation and no string key.
func hasAllSubsetsFrequent(cand transactions.Itemset, prev []transactions.Itemset, sub transactions.Itemset) bool {
	for drop := 0; drop < len(cand)-2; drop++ {
		sub = append(append(sub[:0], cand[:drop]...), cand[drop+1:]...)
		if _, ok := slices.BinarySearchFunc(prev, sub, transactions.Itemset.Compare); !ok {
			return false
		}
	}
	return true
}

// itemsetsOf extracts the itemsets of a level.
func itemsetsOf(level []ItemsetCount) []transactions.Itemset {
	out := make([]transactions.Itemset, len(level))
	for i, ic := range level {
		out[i] = ic.Items
	}
	return out
}
