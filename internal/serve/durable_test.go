package serve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/wal"
)

func TestDurableRestartRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	rows := fixtureRows(60, 16, 3)
	srv := newTestServer(t, rows, Config{FS: fs, SnapshotEvery: 7})
	if srv.log == nil {
		t.Fatal("server with FS not durable")
	}
	ctx := context.Background()
	var sent []Op
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		// Mostly valid appends, plus store-rejected ops (a negative item,
		// a wild TID) that must round-trip the WAL as sequence-advancing
		// no-ops.
		var op Op
		switch rng.Intn(10) {
		case 0:
			op = Op{Kind: OpDelete, TID: rng.Intn(len(rows) + i + 1)}
		case 1:
			op = Op{Kind: OpAppend, Items: []int{-1, 3}}
		case 2:
			op = Op{Kind: OpDelete, TID: len(rows) + i + 100}
		default:
			pair := rng.Intn(8) * 2
			op = Op{Kind: OpAppend, Items: []int{pair, pair + 1, rng.Intn(16)}}
		}
		sent = append(sent, op)
		if err := srv.Enqueue(ctx, op); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory with no initial db: everything must
	// come back from snapshot + replay.
	restarted, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
		MaintainAfter: manualTrigger, FS: fs})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	recOps, found := restarted.Recovered()
	if !found || recOps != uint64(len(sent)) {
		t.Fatalf("recovered %d ops (found=%v), want %d", recOps, found, len(sent))
	}
	want := oracle.Canonical(oracle.Frequent(refFold(rows, sent), testMinSup))
	if got := restarted.View().Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("recovered canonical bytes diverge from the reference")
	}
	if restarted.View().Ops() != uint64(len(sent)) {
		t.Fatalf("recovered view at ops %d, want %d", restarted.View().Ops(), len(sent))
	}
}

// TestDurableRecoveredStateWins: when the data directory already holds
// state, an -in style initial db must be ignored, not merged.
func TestDurableRecoveredStateWins(t *testing.T) {
	fs := wal.NewMemFS()
	first := fixtureRows(40, 12, 1)
	srv := newTestServer(t, first, Config{FS: fs})
	if _, err := srv.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	other := fixtureRows(99, 12, 2)
	restarted, err := New(mustDB(t, other), Config{MinSupport: testMinSup,
		RuleFloor: testFloor, MaintainAfter: manualTrigger, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if _, found := restarted.Recovered(); !found {
		t.Fatal("prior state not detected")
	}
	if got := restarted.View().NumTx(); got != len(first) {
		t.Fatalf("restarted with %d transactions, want the recovered %d", got, len(first))
	}
}

// TestDurableEmptyStartIsNotRecovered: a fresh durable server with no
// initial data reports no recovered state and starts ready.
func TestDurableEmptyStartIsNotRecovered(t *testing.T) {
	srv := newTestServer(t, nil, Config{FS: wal.NewMemFS()})
	if _, found := srv.Recovered(); found {
		t.Fatal("fresh directory reported prior state")
	}
	if !srv.Ready() {
		t.Fatal("fresh server not ready")
	}
}

// failAfterFS delegates to an inner FS but makes every sync fail once n
// syncs have succeeded — a deterministic disk failure mid-flight.
type failAfterFS struct {
	wal.FS
	mu    sync.Mutex
	left  int
	errlo error
}

func (f *failAfterFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failAfterFile{fs: f, File: file}, nil
}

type failAfterFile struct {
	fs *failAfterFS
	wal.File
}

func (ff *failAfterFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.left <= 0 {
		return ff.fs.errlo
	}
	ff.fs.left--
	return ff.File.Sync()
}

// TestDurableFailStop: after the first sync failure nothing further is
// acknowledged (every Enqueue errors), reads keep serving, and a
// restart over the underlying directory recovers at least the acked
// prefix, with the view of exactly the ops it recovered.
func TestDurableFailStop(t *testing.T) {
	mem := wal.NewMemFS()
	injected := errors.New("disk on fire")
	// Budget: wal.Open's segment header and the initial snapshot rotation
	// (new segment, snapshot file) take several syncs. Give it 10, then
	// enqueue until the failure lands.
	ffs := &failAfterFS{FS: mem, left: 10, errlo: injected}
	rows := fixtureRows(30, 12, 7)
	srv := newTestServer(t, rows, Config{FS: ffs, SnapshotEvery: -1})
	ctx := context.Background()
	var sent []Op
	acked := 0
	sawFailure := false
	for i := 0; i < 40; i++ {
		op := Op{Kind: OpAppend, Items: []int{i % 5, 10}}
		sent = append(sent, op)
		err := srv.Enqueue(ctx, op)
		if err == nil {
			if sawFailure {
				t.Fatalf("enqueue %d succeeded after a wal failure", i)
			}
			acked++
			continue
		}
		if !errors.Is(err, wal.ErrWALFailed) {
			t.Fatalf("enqueue %d: %v (want ErrWALFailed)", i, err)
		}
		sawFailure = true
	}
	if !sawFailure {
		t.Fatal("sync failure never surfaced")
	}
	if srv.Stats().WALErrors == 0 {
		t.Fatal("WALErrors not counted")
	}
	// Reads still serve the last published view.
	if _, _, err := srv.TopRules(RulesQuery{K: 5}); err != nil {
		t.Fatalf("reads broken after fail-stop: %v", err)
	}
	srv.Close()

	restarted, err := New(nil, Config{MinSupport: testMinSup, RuleFloor: testFloor,
		MaintainAfter: manualTrigger, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	recOps, _ := restarted.Recovered()
	if recOps < uint64(acked) || recOps > uint64(len(sent)) {
		t.Fatalf("recovered %d ops, want between acked %d and sent %d", recOps, acked, len(sent))
	}
	// Sync-only faults leave every write in the file, so recovery may
	// include unacked ops; check against the count actually recovered.
	want := oracle.Canonical(oracle.Frequent(refFold(rows, sent[:recOps]), testMinSup))
	if got := restarted.View().Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("recovered canonical bytes diverge")
	}
}
