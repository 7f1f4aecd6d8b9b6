package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/assoc"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/mining"
)

// ingestScript drives a durable server over fsys through appends,
// deletes, a flush and a close, and returns the canonical bytes served.
func ingestScript(t *testing.T, fsys wal.FS, rows, extra [][]int) []byte {
	t.Helper()
	db, err := mining.NewDB(rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{MinSupport: 0.02, FS: fsys, MaintainAfter: 32, SnapshotEvery: 64}
	srv, err := serve.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, row := range extra {
		if err := srv.Enqueue(ctx, serve.Op{Kind: serve.OpAppend, Items: row}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := srv.Enqueue(ctx, serve.Op{Kind: serve.OpDelete, TID: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	view, err := srv.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	canon := append([]byte(nil), view.Canonical()...)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return canon
}

// The counting filesystem must be invisible to the program: the same op
// script leaves byte-identical files, crashes into the same image and
// recovers to the same served bytes with and without it.
func TestCountingFSPassesThrough(t *testing.T) {
	rows, err := questRows(600, 5)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := questRows(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	plain := wal.NewMemFS()
	counted := newCountingFS()
	want := ingestScript(t, plain, rows, extra)
	got := ingestScript(t, counted, rows, extra)
	if !bytes.Equal(got, want) {
		t.Fatal("served bytes differ with the wrapper in place")
	}
	names, _ := plain.ReadDir()
	wrapped, _ := counted.ReadDir()
	if len(names) == 0 || len(names) != len(wrapped) {
		t.Fatalf("directories differ: %v vs %v", names, wrapped)
	}
	for i, name := range names {
		a, _ := plain.ReadFile(name)
		b, _ := counted.ReadFile(wrapped[i])
		if name != wrapped[i] || !bytes.Equal(a, b) {
			t.Errorf("file %s differs through the wrapper", name)
		}
	}
	c := counted.counts()
	if c.syncs == 0 || c.writes < c.syncs/2 || c.logBytes == 0 || c.snapBytes == 0 {
		t.Errorf("counters did not move: %+v", c)
	}

	// Crash still works through the exposed MemFS, and gives the image the
	// bare filesystem gives.
	for _, fsys := range []*wal.MemFS{plain.Crash(rand.New(rand.NewSource(9))), counted.Mem.Crash(rand.New(rand.NewSource(9)))} {
		srv, err := serve.New(nil, serve.Config{MinSupport: 0.02, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(srv.View().Canonical(), want) {
			t.Error("recovered bytes differ from the served bytes")
		}
		srv.Close()
	}
}

// The timing transport must be invisible too: same mined bytes, and every
// call the coordinator issued is seen once.
func TestTimingTransportPassesThrough(t *testing.T) {
	rows, err := questRows(1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	tdb, err := plainDB(rows)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mine := func(tr dist.Transport) ([]byte, dist.Stats) {
		d := &assoc.Distributed{Transport: tr, Workers: 2, Engine: assoc.DistEngineApriori}
		defer d.Close()
		res, err := assoc.MineContext(ctx, d, tdb, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return res.Canonical(), d.Coordinator().Stats()
	}
	want, _ := mine(dist.NewLocalTransport(2, true))
	tracer := newTracer()
	tracer.begin(rootSpan)
	tt := &timingTransport{inner: dist.NewLocalTransport(2, true), tr: tracer}
	got, st := mine(tt)
	tracer.end()
	if !bytes.Equal(got, want) {
		t.Fatal("mined bytes differ with the wrapper in place")
	}
	if calls := int(tt.calls.Load()); calls == 0 || calls != st.ShipCalls+st.CountCalls {
		t.Errorf("wrapper saw %d calls, coordinator issued %d", calls, st.ShipCalls+st.CountCalls)
	}
	if spans := len(tracer.spans) - 1; spans != int(tt.calls.Load()) {
		t.Errorf("%d leaf spans for %d calls", spans, tt.calls.Load())
	}
}
