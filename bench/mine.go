package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/assoc"
	"repro/internal/dist"
	"repro/internal/transactions"
	"repro/mining"
)

// minConfidence is the rule floor of the batch path's Result.Rules call.
const minConfidence = 0.5

// workers is the parallelism every workload asks of the program.
const workers = 2

// ctx is the context of every call the harness makes: nothing here is
// ever cancelled.
var ctx = context.Background()

// timeStage runs f and records its length in ms under name.
func (e *env) timeStage(name string, f func() error) error {
	t := time.Now()
	err := f()
	e.stages[name] = float64(time.Since(t)) / 1e6
	return err
}

// loadFixture is the start of every set-up: draw the fixture and load it
// into a database, each timed as its layer's stage.
func (e *env) loadFixture() (fx *fixture, db *mining.DB, err error) {
	err = e.timeStage("synth.baskets_ms", func() error {
		fx, err = loadFixture(e.sc, e.seed)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = e.timeStage("transactions.newdb_ms", func() error {
		db, err = mining.NewDB(fx.rows)
		return err
	})
	return fx, db, err
}

// plainDB loads rows into the internal database type the engines take
// directly (the facade's DB wraps the same type but does not expose it).
func plainDB(rows [][]int) (*transactions.DB, error) {
	db := transactions.NewDB()
	for _, row := range rows {
		if err := db.Add(row...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// referenceMine is the checker's miner: pinned Apriori on one worker, the
// simplest engine in the repository.
func referenceMine(db *mining.DB, support float64) (*mining.Result, error) {
	return mining.Mine(ctx, db, mining.MinSupport(support), mining.Algorithm("Apriori"), mining.Workers(1))
}

// mineLocal is the mine_local workload: one op is a support-ladder job.
type mineLocal struct {
	e    *env
	rows [][]int
	db   *mining.DB

	want      [3][sha256.Size]byte // reference canonical hashes per rung
	wantRules [3]int
	ref       [3]*mining.Result
	refMS     [3]float64
}

// setupMineLocal loads the fixture and warms the ladder up.
func setupMineLocal(e *env) (instance, error) {
	fx, db, err := e.loadFixture()
	if err != nil {
		return nil, err
	}
	w := &mineLocal{e: e, rows: fx.rows, db: db}
	for i := 0; i < e.z.warmOps; i++ {
		if _, _, err := w.ladder(nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// ladder runs one job: a default-engine Mine at each rung, each followed
// by rule generation.
func (w *mineLocal) ladder(tr *tracer) (res [3]*mining.Result, rules [3]int, err error) {
	for r, s := range w.e.sc.ladder {
		tr.begin("mining.mine." + ladderNames[r])
		res[r], err = mining.Mine(ctx, w.db, mining.MinSupport(s), mining.Workers(workers))
		tr.end()
		if err != nil {
			return res, rules, err
		}
		tr.begin("assoc.rules")
		rs, err := res[r].Rules(minConfidence)
		tr.end()
		if err != nil {
			return res, rules, err
		}
		rules[r] = len(rs)
	}
	return res, rules, nil
}

func (w *mineLocal) reference() error {
	for r, s := range w.e.sc.ladder {
		t := time.Now()
		res, err := referenceMine(w.db, s)
		if err != nil {
			return err
		}
		w.refMS[r] = float64(time.Since(t)) / 1e6
		rs, err := res.Rules(minConfidence)
		if err != nil {
			return err
		}
		w.ref[r], w.want[r], w.wantRules[r] = res, sha256.Sum256(res.Canonical()), len(rs)
	}
	return nil
}

func (w *mineLocal) op(i int, tr *tracer) (time.Duration, bool) {
	t := time.Now()
	tr.begin(rootSpan)
	res, rules, err := w.ladder(tr)
	tr.end()
	d := time.Since(t)
	if err != nil {
		return d, false
	}
	for r := range res {
		if sha256.Sum256(res[r].Canonical()) != w.want[r] || rules[r] != w.wantRules[r] {
			return d, false
		}
	}
	return d, true
}

func (w *mineLocal) finish(values map[string]float64, traced bool) (int, int, error) {
	var cands, freq int
	for _, res := range w.ref {
		for _, p := range res.Passes() {
			cands += p.Candidates
		}
		freq += res.NumFrequent()
	}
	values["assoc.candidates"] = float64(cands)
	values["assoc.frequent"] = float64(freq)
	if traced {
		if err := w.probes(values); err != nil {
			return 0, 0, err
		}
	}
	return 0, 0, nil
}

func (w *mineLocal) close() {}

// mineDist is the mine_dist workload: one op is one distributed Apriori
// mine over a fresh two-worker gob transport.
type mineDist struct {
	e   *env
	db  *mining.DB
	tdb *transactions.DB // traced run only: what assoc.Distributed takes

	want  [sha256.Size]byte
	calls int // transport calls of the last traced op
	ships int // shards shipped by the last traced op
}

// setupMineDist loads the fixture and warms the transport path up.
func setupMineDist(e *env) (instance, error) {
	fx, db, err := e.loadFixture()
	if err != nil {
		return nil, err
	}
	w := &mineDist{e: e, db: db}
	if e.traced {
		if w.tdb, err = plainDB(fx.rows); err != nil {
			return nil, err
		}
	}
	for i := 0; i < e.z.warmOps; i++ {
		if _, err := w.mine(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// mine is the op as a caller writes it: the facade over a local transport.
func (w *mineDist) mine() (*mining.Result, error) {
	return mining.Mine(ctx, w.db, mining.MinSupport(w.e.sc.distSup), mining.Transport(mining.LocalTransport(workers)))
}

// mineVia is the same mine built by hand — what the facade's Transport
// option assembles — so a wrapper can sit around the transport.
func (w *mineDist) mineVia(t dist.Transport) (*assoc.Result, dist.Stats, error) {
	d := &assoc.Distributed{Transport: t, Workers: t.NumWorkers(), Engine: assoc.DistEngineApriori}
	defer d.Close()
	res, err := assoc.MineContext(ctx, d, w.tdb, w.e.sc.distSup)
	return res, d.Coordinator().Stats(), err
}

func (w *mineDist) reference() error {
	res, err := referenceMine(w.db, w.e.sc.distSup)
	if err != nil {
		return err
	}
	w.want = sha256.Sum256(res.Canonical())
	return nil
}

func (w *mineDist) op(i int, tr *tracer) (time.Duration, bool) {
	var canonical func() []byte
	var err error
	t := time.Now()
	if tr == nil {
		var res *mining.Result
		if res, err = w.mine(); err == nil {
			canonical = res.Canonical
		}
	} else {
		tr.begin(rootSpan)
		tr.begin("assoc.distributed")
		tt := &timingTransport{inner: dist.NewLocalTransport(workers, true), tr: tr}
		res, st, merr := w.mineVia(tt)
		tr.end()
		tr.end()
		if err = merr; err == nil {
			canonical = res.Canonical
			w.calls, w.ships = int(tt.calls.Load()), st.ShippedShards
		}
	}
	d := time.Since(t)
	return d, err == nil && sha256.Sum256(canonical()) == w.want
}

func (w *mineDist) finish(values map[string]float64, traced bool) (int, int, error) {
	if !traced {
		return 0, 0, nil
	}
	values["dist.calls"] = float64(w.calls)
	values["dist.shipped_shards"] = float64(w.ships)
	if err := w.probes(values); err != nil {
		return 0, 0, fmt.Errorf("probes: %w", err)
	}
	return 0, 0, nil
}

func (w *mineDist) close() {}
