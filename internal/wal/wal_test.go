package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/transactions"
)

// opFixture returns a deterministic op for sequence position i (1-based),
// mixing appends, deletes and store-invalid payloads — the log must
// round-trip all of them verbatim.
func opFixture(i int) Op {
	switch i % 4 {
	case 0:
		return Op{Kind: 1, TID: i / 2}
	case 1:
		return Op{Kind: 0, Items: []int{i, i + 1, i * 3}}
	case 2:
		return Op{Kind: 0, Items: []int{-i, 7}} // store-invalid, still logged
	default:
		return Op{Kind: 0, Items: nil}
	}
}

// rowsAt is the snapshot fixture: c single-item rows.
func rowsAt(c int) []transactions.Itemset {
	rows := make([]transactions.Itemset, c)
	for i := range rows {
		rows[i] = transactions.Itemset{i}
	}
	return rows
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []Op{
		{},
		{Kind: 0, Items: []int{5, 1, 5, -3}},
		{Kind: 1, TID: 1 << 40},
		{Kind: 99, Items: []int{0}, TID: -9},
	}
	var buf []byte
	for i, op := range ops {
		buf = appendRecord(buf, uint64(i+1), op)
	}
	off := 0
	for i, want := range ops {
		op, seq, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, seq)
		}
		if op.Kind != want.Kind || op.TID != want.TID || !reflect.DeepEqual(op.Items, want.Items) {
			t.Fatalf("record %d: got %+v, want %+v", i, op, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	valid := appendRecord(nil, 7, Op{Kind: 0, Items: []int{1, 2, 3}})
	t.Run("truncated prefixes", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			_, _, _, err := decodeRecord(valid[:n])
			if !errors.Is(err, ErrTruncatedRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("prefix %d: got %v", n, err)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := range valid {
			bad := append([]byte(nil), valid...)
			bad[i] ^= 0x40
			op, seq, n, err := decodeRecord(bad)
			if err == nil && (seq != 7 || n != len(valid) || !reflect.DeepEqual(op.Items, []int{1, 2, 3})) {
				t.Fatalf("flip at %d: silently decoded %+v seq %d", i, op, seq)
			}
		}
	})
	t.Run("length overflow", func(t *testing.T) {
		bad := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
		if _, _, _, err := decodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("item count bomb", func(t *testing.T) {
		// Payload claims 2^32 items with 0 bytes behind them.
		payload := []byte{0x01, 0x00, 0x00, 0x90, 0x80, 0x80, 0x80, 0x10}
		rec := appendRecordRaw(payload)
		if _, _, _, err := decodeRecord(rec); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	for _, start := range []uint64{0, 1, 1 << 50} {
		hdr := appendSegmentHeader(nil, start)
		got, n, err := decodeSegmentHeader(hdr)
		if err != nil || got != start || n != len(hdr) {
			t.Fatalf("start %d: got %d, n %d, err %v", start, got, n, err)
		}
	}
	if _, _, err := decodeSegmentHeader([]byte("NOTAWAL!")); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("got %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	blob, err := encodeSnapshot(rowsAt(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	txs, ops, err := decodeSnapshot(blob)
	if err != nil || ops != 42 || len(txs) != 5 {
		t.Fatalf("got %d rows at %d, err %v", len(txs), ops, err)
	}
	for n := 0; n < len(blob); n++ {
		if _, _, err := decodeSnapshot(blob[:n]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("prefix %d: got %v", n, err)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-6] ^= 1
	if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("flip: got %v", err)
	}
}

// encodeSnapshot is the snapshot file Log.Snapshot writes for txs at ops.
func encodeSnapshot(txs []transactions.Itemset, ops uint64) ([]byte, error) {
	return frameSnapshot(ops, func(dst []byte) ([]byte, error) { return transactions.AppendStable(dst, txs) })
}

// snapshotCase is one store the snapshot tests write: its rows as a list
// and as the sharded store that holds them, and the op offset.
type snapshotCase struct {
	name  string
	txs   []transactions.Itemset
	store *transactions.ShardedDB
	ops   uint64
}

// snapshotCases returns an empty store, a one-row store and a multi-shard
// store with deletes at its front, middle and end.
func snapshotCases(t *testing.T) []snapshotCase {
	t.Helper()
	store := transactions.NewShardedDB(64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		items := make([]int, 1+rng.Intn(6))
		for j := range items {
			items[j] = rng.Intn(5000)
		}
		if err := store.Append(items...); err != nil {
			t.Fatal(err)
		}
	}
	for _, tid := range []int{0, 0, 150, 296} {
		if _, err := store.DeleteAt(tid); err != nil {
			t.Fatal(err)
		}
	}
	if store.NumShards() < 4 {
		t.Fatalf("fixture has %d shards, want several", store.NumShards())
	}
	one := transactions.NewShardedDB(64)
	if err := one.Append(3, 17, 29); err != nil {
		t.Fatal(err)
	}
	return []snapshotCase{
		{"empty", nil, transactions.NewShardedDB(64), 0},
		{"one row", []transactions.Itemset{{3, 17, 29}}, one, 1},
		{"multi-shard", store.Snapshot().Transactions, store, 1 << 40},
	}
}

// TestSnapshotBytesMatchTwoBufferLayout pins encodeSnapshot's bytes to
// the layout written out here the plain way — magic, uvarint body length,
// body, CRC-32C of the body — for an empty store, a one-row store and a
// multi-shard store, and round-trips each through decodeSnapshot.
func TestSnapshotBytesMatchTwoBufferLayout(t *testing.T) {
	reference := func(txs []transactions.Itemset, ops uint64) []byte {
		body := binary.AppendUvarint(nil, ops)
		body, err := transactions.AppendStable(body, txs)
		if err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), snapMagic...)
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
		return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	}
	for _, c := range snapshotCases(t) {
		got, err := encodeSnapshot(c.txs, c.ops)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := reference(c.txs, c.ops); !bytes.Equal(got, want) {
			t.Fatalf("%s: encodeSnapshot wrote %d bytes that differ from the %d-byte reference layout", c.name, len(got), len(want))
		}
		txs, ops, err := decodeSnapshot(got)
		if err != nil || ops != c.ops || len(txs) != len(c.txs) {
			t.Fatalf("%s: decoded %d rows at op %d (err %v), want %d at %d", c.name, len(txs), ops, err, len(c.txs), c.ops)
		}
		for i := range txs {
			if !txs[i].Equal(c.txs[i]) {
				t.Fatalf("%s: row %d decodes to %v, want %v", c.name, i, txs[i], c.txs[i])
			}
		}
	}
}

// TestSnapshotFuncWritesSnapshotBytes writes each snapshot case twice, on
// two logs at the same op: once through Snapshot from the row list, once
// through SnapshotFunc from the sharded store's cached encodings. The two
// snapshot files must be byte-identical, and equal to encodeSnapshot's.
func TestSnapshotFuncWritesSnapshotBytes(t *testing.T) {
	for _, c := range snapshotCases(t) {
		ops := min(c.ops, 5)
		write := func(snapshot func(*Log) error) []byte {
			t.Helper()
			fs := NewMemFS()
			l, _, err := Open(fs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for i := 1; i <= int(ops); i++ {
				if _, err := l.Append(opFixture(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := snapshot(l); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			data, err := fs.ReadFile(snapName(ops))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return data
		}
		fromRows := write(func(l *Log) error { return l.Snapshot(c.txs, ops) })
		fromStore := write(func(l *Log) error { return l.SnapshotFunc(ops, c.store.AppendStable) })
		if !bytes.Equal(fromRows, fromStore) {
			t.Fatalf("%s: SnapshotFunc wrote %d bytes that differ from Snapshot's %d", c.name, len(fromStore), len(fromRows))
		}
		if want, err := encodeSnapshot(c.txs, ops); err != nil || !bytes.Equal(fromRows, want) {
			t.Fatalf("%s: Snapshot's file differs from encodeSnapshot (err %v)", c.name, err)
		}
	}
}

// TestSnapshotFuncBodyErrorLeavesLogIntact fails a snapshot's body append
// on a non-normalized row, on a log past its segment's start, where a
// snapshot would rotate. The error must come back as is, the directory
// must hold exactly what it held before (no .tmp file, no fresh segment,
// no snapshot), and the log must keep appending where recovery reads.
func TestSnapshotFuncBodyErrorLeavesLogIntact(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := mem.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	bad := []transactions.Itemset{{1, 2}, {5, 4}}
	err = l.SnapshotFunc(3, func(dst []byte) ([]byte, error) { return transactions.AppendStable(dst, bad) })
	if !errors.Is(err, transactions.ErrBadEncoding) {
		t.Fatalf("SnapshotFunc over a non-normalized row: %v, want ErrBadEncoding", err)
	}
	if err := l.Snapshot(bad, 3); !errors.Is(err, transactions.ErrBadEncoding) {
		t.Fatalf("Snapshot over a non-normalized row: %v, want ErrBadEncoding", err)
	}
	if after, err := mem.ReadDir(); err != nil || !slices.Equal(after, before) {
		t.Fatalf("directory after the failed snapshots: %v (err %v), want %v", after, err, before)
	}
	if _, err := l.Append(opFixture(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(mem.Crash(rand.New(rand.NewSource(1))), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops != 4 || rec.Snapshot != nil || rec.Truncated {
		t.Fatalf("recovered %d ops (snapshot %v, truncated %v), want all 4 from the log", rec.Ops, rec.Snapshot != nil, rec.Truncated)
	}
}

func TestOpenAppendRecover(t *testing.T) {
	fs := NewMemFS()
	l, rec, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops != 0 || rec.Snapshot != nil || rec.Truncated {
		t.Fatalf("fresh recovery: %+v", rec)
	}
	const n = 25
	for i := 1; i <= n; i++ {
		seq, err := l.Append(opFixture(i))
		if err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq %d, err %v", i, seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops != n || rec.Truncated || len(rec.Tail) != n {
		t.Fatalf("recovery: ops %d, truncated %v, tail %d", rec.Ops, rec.Truncated, len(rec.Tail))
	}
	for i, op := range rec.Tail {
		want := opFixture(i + 1)
		if !reflect.DeepEqual(op, want) {
			t.Fatalf("tail %d: got %+v, want %+v", i, op, want)
		}
	}
}

func TestSnapshotRotationAndGC(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(rowsAt(10), 10); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 14; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(rowsAt(14), 14); err != nil {
		t.Fatal(err)
	}
	for i := 15; i <= 16; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	names, _ := fs.ReadDir()
	want := []string{snapName(14), segName(14)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after GC: %v, want %v", names, want)
	}
	_, rec, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotOps != 14 || len(rec.Snapshot) != 14 || rec.Ops != 16 || len(rec.Tail) != 2 {
		t.Fatalf("recovery: %+v", rec)
	}
	if !reflect.DeepEqual(rec.Tail[0], opFixture(15)) || !reflect.DeepEqual(rec.Tail[1], opFixture(16)) {
		t.Fatalf("tail: %+v", rec.Tail)
	}
}

func TestSnapshotAtWrongOffset(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(opFixture(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(rowsAt(3), 3); err == nil {
		t.Fatal("snapshot at the wrong offset accepted")
	}
}

// TestTornTailTruncatedAndRepaired pins the repair path: a torn final
// record is cut on recovery, the segment file is rewritten to its valid
// prefix, and — the abandoned-suffix hazard — a second recovery after
// more appends must not resurrect the cut record.
func TestTornTailTruncatedAndRepaired(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	data, err := fs.ReadFile(segName(0))
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	f, _ := fs.Create(segName(0))
	f.Write(torn)
	f.Sync()
	f.Close()

	l, rec, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || rec.Ops != 4 || len(rec.Tail) != 4 {
		t.Fatalf("torn recovery: ops %d, truncated %v", rec.Ops, rec.Truncated)
	}
	// The damaged segment must have been rewritten to its valid prefix.
	repaired, err := fs.ReadFile(segName(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) >= len(torn) {
		t.Fatalf("segment not truncated: %d >= %d bytes", len(repaired), len(torn))
	}
	// Continue appending (ops 5 and 6 in the new numbering), then recover
	// again: the old op 5 must stay gone.
	for i := 5; i <= 6; i++ {
		if _, err := l.Append(opFixture(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err = Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || rec.Ops != 6 {
		t.Fatalf("second recovery: ops %d, truncated %v", rec.Ops, rec.Truncated)
	}
	if !reflect.DeepEqual(rec.Tail[4], opFixture(105)) {
		t.Fatalf("tail op 5 is %+v, want the re-appended one", rec.Tail[4])
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(rowsAt(4), 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot body: recovery must fall back to a full
	// replay... but GC already removed the pre-snapshot segment, so the
	// honest outcome is truncation to the empty state. Keep the segment
	// by re-creating it from the op stream instead: simplest is to verify
	// the fallback flags.
	data, err := fs.ReadFile(snapName(4))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	f, _ := fs.Create(snapName(4))
	f.Write(data)
	f.Sync()
	f.Close()

	_, rec, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("corrupt snapshot not flagged")
	}
	if rec.Snapshot != nil || rec.SnapshotOps != 0 {
		t.Fatalf("corrupt snapshot still loaded: %+v", rec)
	}
}

func TestFailStop(t *testing.T) {
	mem := NewMemFS()
	// Sync always fails: the first Append survives (write ok), the first
	// Sync poisons the log, everything after returns ErrWALFailed.
	ffs := NewFaultFS(mem, FaultPlan{Seed: 1, SyncErr: 1})
	l := &Log{fs: ffs, policy: SyncAlways}
	// Build the segment by hand: Open would already fail its sync.
	f, err := mem.Create(segName(0))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(appendSegmentHeader(nil, 0))
	f.Sync()
	l.f = &faultFile{fs: ffs, inner: f}
	if _, err := l.Append(opFixture(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("sync: %v", err)
	}
	if _, err := l.Append(opFixture(2)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append after failure: %v", err)
	}
	if err := l.Snapshot(rowsAt(1), 1); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("snapshot after failure: %v", err)
	}
}

// TestCrashProperty is the wal-layer half of the tentpole property: for
// random op streams, sync points and crash instants, recovery always
// yields a clean prefix of the appended sequence that includes every
// synced op — across seeds, with snapshots in the mix.
func TestCrashProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewMemFS()
			l, _, err := Open(fs, Options{Policy: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			var appended []Op
			synced := 0 // ops known durable
			n := 5 + rng.Intn(60)
			for i := 1; i <= n; i++ {
				op := opFixture(rng.Intn(1000))
				if _, err := l.Append(op); err != nil {
					t.Fatal(err)
				}
				appended = append(appended, op)
				switch rng.Intn(10) {
				case 0:
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
					synced = i
				case 1:
					if err := l.Snapshot(rowsAt(i), uint64(i)); err != nil {
						t.Fatal(err)
					}
					synced = i
				}
			}
			// Crash without closing.
			crashed := fs.Crash(rng)
			_, rec, err := Open(crashed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Ops < uint64(synced) {
				t.Fatalf("lost synced ops: recovered %d < synced %d", rec.Ops, synced)
			}
			if rec.Ops > uint64(n) {
				t.Fatalf("invented ops: recovered %d > appended %d", rec.Ops, n)
			}
			if len(rec.Snapshot) != int(rec.SnapshotOps) {
				t.Fatalf("snapshot rows %d at ops %d", len(rec.Snapshot), rec.SnapshotOps)
			}
			if rec.SnapshotOps+uint64(len(rec.Tail)) != rec.Ops {
				t.Fatalf("ops %d != snapshot %d + tail %d", rec.Ops, rec.SnapshotOps, len(rec.Tail))
			}
			for i, op := range rec.Tail {
				want := appended[int(rec.SnapshotOps)+i]
				if !reflect.DeepEqual(op, want) {
					t.Fatalf("tail %d: got %+v, want %+v", i, op, want)
				}
			}
		})
	}
}

// appendRecordRaw frames an arbitrary payload as a record (valid length
// and checksum, possibly invalid payload) — the corruption tests' tool.
func appendRecordRaw(payload []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// snapFaultFS fails writes or syncs only on .tmp files (the snapshot
// staging path), letting the log's own segments run clean, and with
// failRemove or failRename fails segment removals or renames.
type snapFaultFS struct {
	FS
	failWrite  bool
	failSync   bool
	failRemove bool
	failRename bool
}

func (s *snapFaultFS) Remove(name string) error {
	if s.failRemove && strings.HasPrefix(name, "wal-") {
		return errors.New("injected: segment remove failed")
	}
	return s.FS.Remove(name)
}

func (s *snapFaultFS) Rename(oldname, newname string) error {
	if s.failRename {
		return errors.New("injected: rename failed")
	}
	return s.FS.Rename(oldname, newname)
}

func (s *snapFaultFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".tmp") {
		return &snapFaultFile{File: f, fs: s}, nil
	}
	return f, nil
}

type snapFaultFile struct {
	File
	fs *snapFaultFS
}

func (f *snapFaultFile) Write(p []byte) (int, error) {
	if f.fs.failWrite {
		return 0, errors.New("injected: snapshot blob write failed")
	}
	return f.File.Write(p)
}

func (f *snapFaultFile) Sync() error {
	if f.fs.failSync {
		return errors.New("injected: snapshot blob sync failed")
	}
	return f.File.Sync()
}

// TestSnapshotWriteFailureNotSwallowed is the regression test for two
// Snapshot bugs. A shadowed err once let a torn snapshot be renamed into
// place, and gc then deleted the segments it supposedly superseded. And
// a failed Snapshot once left its new segment on disk (recovery then cut
// every later op from the old one as an abandoned suffix) or, at the
// segment's own start, left the log appending to a file it had just
// replaced. A failed blob write or sync must fail the call, leave the
// previous snapshot authoritative, and leave the log appending where
// recovery reads: op 4, synced after the failure, must survive a crash.
// If the new segment cannot be removed, or the rename fails and leaves
// the commit unknown, the log must fail-stop instead.
func TestSnapshotWriteFailureNotSwallowed(t *testing.T) {
	modes := []struct {
		name                                        string
		failWrite, failSync, failRemove, failRename bool
		// reopen snapshots at the segment's own start, as serve.New
		// compacts a replayed tail.
		reopen bool
	}{
		{name: "write", failWrite: true},
		{name: "sync", failSync: true},
		{name: "write at segment start", failWrite: true, reopen: true},
		{name: "sync at segment start", failSync: true, reopen: true},
		{name: "sync, new segment not removable", failSync: true, failRemove: true},
		{name: "rename", failRename: true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			mem := NewMemFS()
			sfs := &snapFaultFS{FS: mem}
			l, _, err := Open(sfs, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 2; i++ {
				if _, err := l.Append(opFixture(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Snapshot(rowsAt(2), 2); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(opFixture(3)); err != nil {
				t.Fatal(err)
			}
			if mode.reopen {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, _, err = Open(sfs, Options{Policy: SyncAlways}); err != nil {
					t.Fatal(err)
				}
			}
			sfs.failWrite, sfs.failSync, sfs.failRemove, sfs.failRename = mode.failWrite, mode.failSync, mode.failRemove, mode.failRename
			if err := l.Snapshot(rowsAt(3), 3); err == nil {
				t.Fatal("Snapshot with a failed blob write/sync or rename returned nil")
			}
			if _, err := mem.ReadFile(snapName(3)); err == nil {
				t.Fatal("torn snapshot was renamed into place")
			}
			want := uint64(4)
			if _, err := l.Append(opFixture(4)); mode.failRemove || mode.failRename {
				if !errors.Is(err, ErrWALFailed) {
					t.Fatalf("Append after an unremoved segment or a failed rename: %v, want ErrWALFailed", err)
				}
				want = 3
			} else if err != nil {
				t.Fatal(err)
			} else if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			_, rec, err := Open(mem.Crash(rand.New(rand.NewSource(1))), Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if rec.SnapshotOps != 2 {
				t.Fatalf("recovered snapshot covers %d ops, want the previous snapshot's 2", rec.SnapshotOps)
			}
			if rec.Ops != want {
				t.Fatalf("recovered %d ops, want %d: op 4 was synced unless the log fail-stopped", rec.Ops, want)
			}
		})
	}
}

// repairFaultFS fails every write on .tmp files: the recovery repair
// path stages its truncated segment through one.
type repairFaultFS struct {
	FS
}

func (s *repairFaultFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".tmp") {
		return &repairFaultFile{File: f}, nil
	}
	return f, nil
}

type repairFaultFile struct{ File }

func (f *repairFaultFile) Write(p []byte) (int, error) {
	return 0, errors.New("injected: repair write failed")
}

// TestRepairWriteFailureNotSwallowed is the recover.go twin of the
// Snapshot regression: a failed write of the repaired segment must fail
// Open rather than atomically renaming an empty file over the segment.
func TestRepairWriteFailureNotSwallowed(t *testing.T) {
	mem := NewMemFS()
	l, _, err := Open(mem, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(opFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the segment tail so the next recovery must repair it.
	name := segName(0)
	data, err := mem.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := mem.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write(data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}
	if err := torn.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(&repairFaultFS{FS: mem}, Options{Policy: SyncAlways}); err == nil {
		t.Fatal("Open with a failed repair write returned nil")
	}
	// The original (torn but untouched) segment must still recover its
	// valid prefix once the fault is gone.
	_, rec, err := Open(mem, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops != 2 {
		t.Fatalf("recovered %d ops after repair, want 2", rec.Ops)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
}
