// Package mining is the public, versioned frequent-itemset mining API of
// this module — the single way in to the four engines internal/assoc
// registers (level-wise Apriori, vertical Eclat, pattern-growth FPGrowth,
// and Auto, which picks a family after pass 2) and to the
// coordinator/worker distributed backend, which the Transport option
// selects. The survey's first-generation miners (AIS, SETM, AprioriTid,
// AprioriHybrid, Partition, Sampling) are reference engines, in
// internal/assoc/reference, and are not selectable here.
//
// # One-shot mining
//
// Mine runs one engine over an immutable DB under a context:
//
//	db, _ := mining.ReadBasket(f)
//	res, err := mining.Mine(ctx, db,
//		mining.MinSupport(0.01),
//		mining.Workers(0),              // 0 = GOMAXPROCS
//		mining.Algorithm("FPGrowth"),
//	)
//
// Every engine produces byte-identical results on the same input — the
// Canonical encoding is the contract the test suite pins — so Algorithm
// and Workers move only wall-clock time, never answers. Cancelling ctx
// aborts the hot loops promptly (within one counting stride or one pass
// fan-out), returns context.Canceled, and leaks no goroutines.
//
// MineStream is Mine with per-level delivery via iter.Seq2, so a server
// can emit short frequent itemsets while long ones are still being
// counted. The concatenated stream is byte-identical to Mine's levels.
// Levels and Progress callbacks run on the caller's goroutine, inside the
// mine, which waits for them; leaving the loop, by break or by panic,
// leaves nothing running.
//
// # Stateful sessions
//
// Session owns an updatable sharded store and keeps its mined result
// current under appends and deletes: Maintain counts only the transactions
// an update added or deleted (the FUP-style incremental maintainer),
// falling back to a full re-mine only when the maintained frequent set's
// negative border is crossed. A full run counts level-wise, and its pass
// counts are the maintained totals, so the store is counted once. Results
// stay byte-identical to a from-scratch run at every step. With Transport
// configured the full runs' scans go to the distributed workers, which
// receive only dirty shards, composing the incremental and distributed
// backends.
//
// # Options and defaults
//
// All knobs are functional options, shared by Mine, MineStream and
// NewSession. Zero values and omitted options mean:
//
//	MinSupport   0.01 (DefaultMinSupport)
//	Algorithm    "Auto" (DefaultAlgorithm): level-wise or growth, decided after pass 2
//	Workers      1 (serial); Workers(0) resolves to runtime.GOMAXPROCS
//	Transport    none (in-process mining)
//	Progress     none
//	ShardCap     1024 transactions per session shard
//
// Sessions track candidates at 0.8x the support (not an option: the
// slack moves only how often a maintain falls back to a full re-mine).
//
// The defaults are pinned by the cross-engine defaults test in
// internal/assoc and the option tests here.
package mining

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/assoc"
	"repro/internal/transactions"
)

// Errors returned by the package. ErrBadSupport, ErrEmptyDB and
// ErrBadConfidence are the engines' own sentinels re-exported, so
// errors.Is works across the facade.
var (
	// ErrBadSupport reports a minimum support outside (0, 1].
	ErrBadSupport = assoc.ErrBadSupport
	// ErrEmptyDB reports mining over no transactions.
	ErrEmptyDB = assoc.ErrEmptyDB
	// ErrBadConfidence reports a minimum confidence outside (0, 1].
	ErrBadConfidence = assoc.ErrBadConfidence
	// ErrUnknownAlgorithm reports an Algorithm name not in Algorithms().
	ErrUnknownAlgorithm = errors.New("mining: unknown algorithm")
	// ErrBadOption reports an invalid option value.
	ErrBadOption = errors.New("mining: invalid option")
	// ErrClosed reports use of a closed Session.
	ErrClosed = errors.New("mining: session is closed")
)

// DB is an immutable transaction database: one sorted itemset of
// non-negative item ids per transaction. Build one with NewDB or
// ReadBasket and mine it with Mine or MineStream; for a database that
// changes over time, use a Session instead.
type DB struct {
	db *transactions.DB
}

// NewDB builds a database from one transaction per row. Items are
// deduplicated and sorted; negative ids are rejected.
func NewDB(rows [][]int) (*DB, error) {
	db := transactions.NewDB()
	for i, tx := range rows {
		if err := db.Add(tx...); err != nil {
			return nil, fmt.Errorf("mining: row %d: %w", i, err)
		}
	}
	return &DB{db: db}, nil
}

// ReadBasket parses the whitespace-separated basket format (one
// transaction of item ids per line, as cmd/dmgen emits).
func ReadBasket(r io.Reader) (*DB, error) {
	db, err := transactions.ReadBasket(r)
	if err != nil {
		return nil, err
	}
	return &DB{db: db}, nil
}

// Len returns the number of transactions.
func (d *DB) Len() int {
	if d == nil {
		return 0
	}
	return d.db.Len()
}

// NumItems returns 1 + the largest item id in the database.
func (d *DB) NumItems() int {
	if d == nil {
		return 0
	}
	return d.db.NumItems()
}

// Rows returns the database's transactions as one row of sorted,
// deduplicated item ids per transaction, in live order. The rows alias
// the store — treat them as read-only.
//
//lint:ignore invcheck/ctxdiscipline Rows is an O(n) header-copying accessor, not a counting hot loop; there is no scan to cancel and snapshotting must not fail mid-copy
func (d *DB) Rows() [][]int {
	if d == nil {
		return nil
	}
	rows := make([][]int, len(d.db.Transactions))
	for i, tx := range d.db.Transactions {
		rows[i] = tx
	}
	return rows
}

// unwrap returns the internal database (nil for a nil DB, which the
// engines report as ErrEmptyDB).
func (d *DB) unwrap() *transactions.DB {
	if d == nil {
		return nil
	}
	return d.db
}

// ItemsetCount pairs a frequent itemset (sorted item ids) with its
// absolute support count.
type ItemsetCount struct {
	Items []int
	Count int
}

// PassStat records the work of one counting pass: the itemset length K,
// how many candidates were counted, and how many met minimum support.
// Candidate-free engines mirror the frequent count into Candidates so
// pass tables stay comparable across algorithms.
type PassStat struct {
	K          int
	Candidates int
	Frequent   int
	// Degraded marks a pass the distributed engine served locally after
	// losing every worker (see the Faults and Retry options): the counts
	// are still exact, but nothing ran remotely. Always false for local
	// engines.
	Degraded bool
}

// Rule is an association rule Antecedent => Consequent. Support is the
// absolute support of the union, Confidence is support(union)/
// support(antecedent), and Lift is confidence over the consequent's
// relative support.
type Rule struct {
	Antecedent []int
	Consequent []int
	Support    int
	Confidence float64
	Lift       float64
}

// String renders the rule as "[a] => [b] (sup=…, conf=…, lift=…)".
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup=%d, conf=%.3f, lift=%.3f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// Result holds the frequent itemsets of one mining run (or one maintained
// Session state), grouped into levels by itemset length. It wraps the
// engines' result representation directly, which is what makes Canonical
// byte-identical to the internal call paths by construction.
type Result struct {
	res *assoc.Result
}

// wrapResult adapts an internal result; nil stays nil.
func wrapResult(r *assoc.Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{res: r}
}

// convertLevel adapts one internal level; the item slices are shared, not
// copied — treat them as read-only.
func convertLevel(level []assoc.ItemsetCount) []ItemsetCount {
	out := make([]ItemsetCount, len(level))
	for i, ic := range level {
		out[i] = ItemsetCount{Items: ic.Items, Count: ic.Count}
	}
	return out
}

// NumTx returns the number of transactions mined.
func (r *Result) NumTx() int { return r.res.NumTx }

// MinCount returns the absolute minimum support count used.
func (r *Result) MinCount() int { return r.res.MinCount }

// NumFrequent returns the total number of frequent itemsets.
func (r *Result) NumFrequent() int { return r.res.NumFrequent() }

// MaxLen returns the length of the longest frequent itemset.
func (r *Result) MaxLen() int { return r.res.MaxLevel() }

// Level returns the frequent k-itemsets in lexicographic order (nil when
// k is out of range).
func (r *Result) Level(k int) []ItemsetCount {
	if k < 1 || k > len(r.res.Levels) {
		return nil
	}
	return convertLevel(r.res.Levels[k-1])
}

// Itemsets returns every frequent itemset across levels, in level then
// lexicographic order.
func (r *Result) Itemsets() []ItemsetCount {
	return convertLevel(slices.Concat(r.res.Levels...))
}

// Support returns the absolute support of the given itemset if it is
// frequent. Items may be unsorted; duplicates are ignored.
func (r *Result) Support(items ...int) (int, bool) {
	return r.res.Support(transactions.NewItemset(items...))
}

// Passes returns the per-pass work stats in pass order.
func (r *Result) Passes() []PassStat {
	out := make([]PassStat, len(r.res.Passes))
	for i, p := range r.res.Passes {
		out[i] = PassStat(p)
	}
	return out
}

// Canonical returns the deterministic byte encoding of the frequent
// levels (one "items:count" line per itemset, in level then lexicographic
// order). Two results encode identically iff they found the same itemsets
// with the same supports — the byte-identity contract every engine, the
// incremental maintainer and the distributed backend are tested against.
func (r *Result) Canonical() []byte { return r.res.Canonical() }

// Rules derives all association rules meeting minConfidence from the
// frequent itemsets, sorted by descending confidence, then support, then
// antecedent and consequent order. It derives each rule once, straight
// into the returned slice: assoc.GenerateRules sorts compact records of
// the rules that pass and only then writes them, with their itemsets cut
// from one exactly sized arena, and looks supports up among the itemsets
// that share a first item. It returns nil when no rule passes.
func (r *Result) Rules(minConfidence float64) ([]Rule, error) {
	return assoc.GenerateRules(r.res, minConfidence, newRule)
}

// newRule is the constructor Rules hands assoc.GenerateRules.
func newRule(ante, cons transactions.Itemset, support int, conf, lift float64) Rule {
	return Rule{Antecedent: ante, Consequent: cons, Support: support, Confidence: conf, Lift: lift}
}
