package main

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/assoc"
	"repro/internal/dist"
	"repro/internal/fptree"
	"repro/internal/hashtree"
	"repro/internal/transactions"
)

// The layer probes are the traced run's second half: each times calls
// into one package's public functions on this run's fixture, outside the
// workload's ops, so a layer has a number of its own even where the op
// reaches it only through another layer. Each probe forces a GC first and
// reports the median of a few repetitions.

// probeMS returns the median length in ms of reps runs of f, with a forced
// GC before each, stopping at the first error.
func probeMS(reps int, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms), nil
}

// passTimer splits a mine into passes by the time between pass-hook
// calls: k1 and k2 on their own, every later pass summed into k3plus.
type passTimer struct {
	last time.Time
	ms   [3]float64
}

// hook is the assoc.PassHook that records one finished pass.
func (p *passTimer) hook(stat assoc.PassStat, _ []assoc.ItemsetCount) {
	now := time.Now()
	p.ms[min(stat.K, 3)-1] += float64(now.Sub(p.last)) / 1e6
	p.last = now
}

// store writes the pass times into values.
func (p *passTimer) store(values map[string]float64) {
	values["assoc.pass_ms.k1"] = p.ms[0]
	values["assoc.pass_ms.k2"] = p.ms[1]
	values["assoc.pass_ms.k3plus"] = p.ms[2]
}

// probes runs mine_local's layer probes: transactions, hashtree, fptree
// and the pinned assoc engines.
func (w *mineLocal) probes(values map[string]float64) error {
	tdb, err := plainDB(w.rows)
	if err != nil {
		return err
	}
	mid := w.e.sc.ladder[1]

	// transactions: the vertical layout Auto's dense arm would build.
	if values["transactions.vertical_bitset_ms"], err = probeMS(3, func() error {
		tdb.ToVerticalBitset()
		return nil
	}); err != nil {
		return err
	}

	// hashtree: the pass-3 candidates of the middle rung, built into a tree
	// and counted over the whole fixture.
	var l2 []transactions.Itemset
	for _, ic := range w.ref[1].Level(2) {
		l2 = append(l2, transactions.Itemset(ic.Items))
	}
	cands := assoc.AprioriGen(l2)
	var tree *hashtree.Tree
	if values["hashtree.build_ms"], err = probeMS(5, func() error {
		tree = hashtree.New(3)
		for _, c := range cands {
			if _, err := tree.Insert(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if values["hashtree.count_ms"], err = probeMS(3, func() error {
		for tid, tx := range tdb.Transactions {
			tree.CountTransaction(tx, tid)
		}
		return nil
	}); err != nil {
		return err
	}

	// fptree: one build at the middle rung, two half builds merged, and an
	// export/import round trip.
	counts := make([]int, tdb.NumItems())
	for _, tx := range tdb.Transactions {
		for _, it := range tx {
			counts[it]++
		}
	}
	ranks := fptree.NewRanks(counts, tdb.AbsoluteSupport(mid))
	var whole *fptree.Tree
	if values["fptree.build_ms"], err = probeMS(3, func() error {
		whole = fptree.Build(tdb.Transactions, ranks)
		return nil
	}); err != nil {
		return err
	}
	values["fptree.nodes"] = float64(whole.NumNodes())
	half := len(tdb.Transactions) / 2
	var mergeMS []float64
	for i := 0; i < 3; i++ {
		a, b := fptree.Build(tdb.Transactions[:half], ranks), fptree.Build(tdb.Transactions[half:], ranks)
		runtime.GC()
		t := time.Now()
		a.Merge(b)
		mergeMS = append(mergeMS, float64(time.Since(t))/1e6)
	}
	values["fptree.merge_ms"] = median(mergeMS)
	if values["fptree.export_import_ms"], err = probeMS(3, func() error {
		_, err := fptree.Import(ranks, whole.Export())
		return err
	}); err != nil {
		return err
	}

	// assoc: each rung on each pinned engine, called below the facade; the
	// regret of Auto is the facade's time over the better of the two.
	for r, s := range w.e.sc.ladder {
		var passes passTimer
		ap, err := probeMS(2, func() error {
			m := &assoc.Apriori{Workers: workers}
			if r == 1 {
				passes = passTimer{last: time.Now()}
				m.SetPassHook(passes.hook)
			}
			_, err := assoc.MineContext(ctx, m, tdb, s)
			return err
		})
		if err != nil {
			return err
		}
		if r == 1 {
			passes.store(values)
		}
		fp, err := probeMS(2, func() error {
			_, err := assoc.MineContext(ctx, &assoc.FPGrowth{Workers: workers}, tdb, s)
			return err
		})
		if err != nil {
			return err
		}
		values["assoc.apriori_ms."+ladderNames[r]] = ap
		values["assoc.fpgrowth_ms."+ladderNames[r]] = fp
		values["assoc.auto_regret."+ladderNames[r]] = values["mining.mine_ms."+ladderNames[r]] / min(ap, fp)
	}
	// The reference mine of the middle rung was pinned Apriori on one
	// worker: its time over the two-worker probe is the parallel gain.
	values["assoc.w1_over_w2"] = w.refMS[1] / values["assoc.apriori_ms."+ladderNames[1]]
	return nil
}

// probes runs mine_dist's layer probes: the share of the op that is gob,
// and the op's cost over the local engine's at the same support.
func (w *mineDist) probes(values map[string]float64) error {
	timed := func(encode bool, hook assoc.PassHook) func() error {
		return func() error {
			d := &assoc.Distributed{Transport: dist.NewLocalTransport(workers, encode), Workers: workers, Engine: assoc.DistEngineApriori}
			defer d.Close()
			if hook != nil {
				d.SetPassHook(hook)
			}
			_, err := assoc.MineContext(ctx, d, w.tdb, w.e.sc.distSup)
			return err
		}
	}
	withGob, err := probeMS(5, timed(true, nil))
	if err != nil {
		return err
	}
	noGob, err := probeMS(5, timed(false, nil))
	if err != nil {
		return err
	}
	values["dist.gob_share"] = 1 - noGob/withGob
	local, err := probeMS(5, func() error {
		_, err := assoc.MineContext(ctx, &assoc.Apriori{Workers: workers}, w.tdb, w.e.sc.distSup)
		return err
	})
	if err != nil {
		return err
	}
	values["dist.overhead_x"] = withGob / local
	passes := passTimer{last: time.Now()}
	if err := timed(true, passes.hook)(); err != nil {
		return err
	}
	passes.store(values)
	return nil
}

// stableCodec times the transactions package's stable encoding over the
// fixture — the bytes a WAL snapshot is made of.
func stableCodec(values map[string]float64, tdb *transactions.DB) error {
	var buf bytes.Buffer
	var err error
	if values["transactions.encode_stable_ms"], err = probeMS(3, func() error {
		buf.Reset()
		return transactions.EncodeStable(&buf, tdb.Transactions)
	}); err != nil {
		return err
	}
	values["transactions.stable_bytes_per_tx"] = float64(buf.Len()) / float64(tdb.Len())
	values["transactions.decode_stable_ms"], err = probeMS(3, func() error {
		_, err := transactions.DecodeStable(bytes.NewReader(buf.Bytes()))
		return err
	})
	return err
}

// shardedOps times bare ShardedDB appends and head deletes, the store
// mutations under every ingest op.
func shardedOps(values map[string]float64, tdb *transactions.DB, extra [][]int) error {
	const n = 4096
	store := transactions.NewShardedDBFrom(tdb, transactions.DefaultShardCap)
	runtime.GC()
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := store.Append(extra[i%len(extra)]...); err != nil {
			return err
		}
	}
	values["transactions.sharded_append_ns"] = float64(time.Since(t)) / n
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := store.DeleteAt(0); err != nil {
			return err
		}
	}
	values["transactions.sharded_delete_ns"] = float64(time.Since(t)) / n
	return nil
}
