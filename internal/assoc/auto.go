package assoc

import (
	"context"
	"sync/atomic"

	"repro/internal/transactions"
)

// Auto dispatches each Mine call to the expected-fastest engine for the
// workload, chosen from a cheap pass-1 scan (every miner repeats that scan
// anyway, so probing costs one pass):
//
//   - genuinely dense frequent items (mean tid-list density >=
//     AutoDensityCutoff over at least AutoMinDenseItems of them): Eclat
//     — word-wise AND + popcount intersections win on dense data;
//   - a large frequent-item universe, where level-wise pair candidates
//     (|L1|^2/2) dwarf the database scan: FPGrowth — pattern growth never
//     materialises candidates (the dmbench -exp P3 ladder);
//   - otherwise: Apriori — for small frequent universes the triangular
//     pass-2 array and hash tree are cheap and scan-bound.
//
// Every engine returns identical results, so the dispatch only moves
// wall-clock time — bench reports what a wrong pick costs as
// assoc.auto_regret.* — and the registry equivalence tests cover Auto like
// any other miner.
type Auto struct {
	// Workers is forwarded to whichever engine is selected.
	Workers int

	hook     PassHook
	selected atomic.Value // string: engine name of the last Select/Mine
}

// AutoDensityCutoff is the mean frequent-item density above which Auto
// prefers Eclat: the point where the workload is dense enough for vertical
// bitset intersections to beat the other engine families outright.
const AutoDensityCutoff = 1.0 / 16

// AutoMinDenseItems is the minimum frequent-item count for the dense arm:
// below it every engine is scan-bound and tiny databases would otherwise
// read as "dense" by ratio alone.
const AutoMinDenseItems = 8

// Name implements Miner.
func (a *Auto) Name() string { return "Auto" }

// SetWorkers implements Engine.
func (a *Auto) SetWorkers(n int) { a.Workers = n }

// SetPassHook implements Engine; the hook is forwarded to whichever
// engine the dispatch selects, so its level semantics are the engine's.
func (a *Auto) SetPassHook(h PassHook) { a.hook = h }

// Selected returns the engine name the last Select or Mine dispatched to
// ("" before the first call). It is safe to read after a concurrent Mine.
func (a *Auto) Selected() string {
	if s, ok := a.selected.Load().(string); ok {
		return s
	}
	return ""
}

// Select runs the dispatch heuristic and returns the chosen engine without
// mining. Mine is Select followed by the engine's Mine.
func (a *Auto) Select(db *transactions.DB, minSupport float64) (Engine, error) {
	return a.SelectContext(context.Background(), db, minSupport)
}

// SelectContext is Select with the probe scan under ctx.
func (a *Auto) SelectContext(ctx context.Context, db *transactions.DB, minSupport float64) (Engine, error) {
	minCount, err := checkInput(db, minSupport)
	if err != nil {
		return nil, err
	}
	counts, err := scanLocal(db, a.Workers).countItems(ctx)
	if err != nil {
		return nil, err
	}
	nFreq, totalTids := 0, 0
	for _, c := range counts {
		if c >= minCount {
			nFreq++
			totalTids += c
		}
	}
	var m Engine
	switch {
	case nFreq == 0:
		m = &Apriori{Workers: a.Workers}
	case nFreq >= AutoMinDenseItems && float64(totalTids)/float64(nFreq*db.Len()) >= AutoDensityCutoff:
		m = &Eclat{Workers: a.Workers}
	case nFreq*(nFreq-1)/2 > 4*db.Len():
		m = &FPGrowth{Workers: a.Workers}
	default:
		m = &Apriori{Workers: a.Workers}
	}
	a.selected.Store(m.Name())
	return m, nil
}

// Mine implements Miner by dispatching to the selected engine.
func (a *Auto) Mine(db *transactions.DB, minSupport float64) (*Result, error) {
	return a.MineContext(context.Background(), db, minSupport)
}

// MineContext implements Miner: SelectContext followed by the chosen
// engine's MineContext, with the pass hook forwarded.
func (a *Auto) MineContext(ctx context.Context, db *transactions.DB, minSupport float64) (*Result, error) {
	m, err := a.SelectContext(ctx, db, minSupport)
	if err != nil {
		return emptyResult(), err
	}
	m.SetPassHook(a.hook)
	return m.MineContext(ctx, db, minSupport)
}
