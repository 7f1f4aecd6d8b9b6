// Package wal is the durability layer under the serving tier: a
// length-prefixed, CRC-32C-checksummed write-ahead log of numbered ops,
// periodic snapshots of the folded store, and a recovery path that loads
// the newest valid snapshot and replays the log tail, truncating at the
// first torn or corrupt record.
//
// # Crash-safety contract
//
// An op is durable once Append and then Sync have returned nil: after
// any crash, Open recovers a state equal to folding a prefix of the
// logged op sequence that includes every synced op. With the serving
// tier's sync-before-acknowledge policy this makes acknowledged-then-
// lost impossible; weaker policies trade the tail since the last sync
// for throughput, but recovery still never yields anything other than a
// clean prefix — torn and bit-flipped tails are detected by checksum and
// cut, never half-applied.
//
// # Fail-stop
//
// The log is fail-stop: the first write or sync error on its segments
// permanently poisons it, and every later Append/Sync returns
// ErrWALFailed. A failed snapshot does not: it removes what it created
// and the log goes on appending where recovery reads. Retrying
// a failed fsync silently drops data on most kernels (the dirty pages
// were already discarded), so the only honest continuation is to stop
// acknowledging and let the operator restart from the log.
//
// # Files
//
// A data directory holds segments ("wal-<hex start>.log") and snapshots
// ("snap-<hex ops>.snap"). A segment's name carries the op count
// preceding its first record; snapshots are written to a temp file,
// synced, then renamed, so a crash mid-snapshot leaves the previous one
// intact. Snapshot success rotates to a fresh segment and garbage-
// collects everything older.
//
// # Snapshot bodies
//
// Log.SnapshotFunc takes the body as a function that appends the rows'
// stable encoding (internal/transactions) to the buffer it is handed:
// the log frames and checksums the bytes where they landed, so the body
// is neither materialised as a row list nor copied. The serving tier
// appends a ShardedDB's cached per-shard encodings, so a snapshot
// re-encodes only the shards mutated since the last one. Log.Snapshot is
// the same entry over a row list.
package wal

import (
	"errors"
	"fmt"

	"repro/internal/transactions"
)

// ErrWALFailed reports use of a log after a write or sync error made it
// fail-stop. The original error is in the message; the sentinel is what
// callers test with errors.Is.
var ErrWALFailed = errors.New("wal: log failed")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

// The sync policies. SyncAlways is the zero value: durability by
// default, weakening is the explicit choice.
const (
	// SyncAlways syncs before every acknowledgement batch: no
	// acknowledged op can be lost to a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval syncs on the serving tier's timer: a crash may lose
	// acknowledged ops appended since the last tick.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache: fastest, and a
	// process kill (without power loss) still loses nothing.
	SyncNever
)

// String names the policy for banners and baselines.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configure Open.
type Options struct {
	// Policy is the sync policy (zero value SyncAlways).
	Policy SyncPolicy
}

// Log is an open write-ahead log positioned at the end of the recovered
// op sequence. It is not safe for concurrent use; the serving tier's
// single ingest goroutine owns it.
type Log struct {
	fs       FS
	policy   SyncPolicy
	f        File
	seq      uint64
	segStart uint64
	dirty    bool
	failed   error
	buf      []byte
}

// segName is the file name of the segment whose first record is op
// start+1.
func segName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }

// snapName is the file name of the snapshot covering the first ops ops.
func snapName(ops uint64) string { return fmt.Sprintf("snap-%016x.snap", ops) }

// Open recovers the directory's state and returns a log ready to append
// op rec.Ops+1, plus the recovery describing what was found. If recovery
// truncated a torn tail, the damaged segment has already been rewritten
// to its valid prefix (atomically, via a temp file) and everything after
// it removed, so a later crash cannot resurrect the abandoned suffix.
func Open(fsys FS, opts Options) (*Log, *Recovery, error) {
	rec, err := Recover(fsys)
	if err != nil {
		return nil, nil, err
	}
	if err := rec.repair(fsys); err != nil {
		return nil, nil, err
	}
	l := &Log{fs: fsys, policy: opts.Policy, seq: rec.Ops, segStart: rec.Ops}
	if l.f, err = l.createSegment(l.segStart); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// createSegment creates the segment for ops start+1... and makes its
// header durable.
func (l *Log) createSegment(start uint64) (File, error) {
	f, err := l.fs.Create(segName(start))
	if err != nil {
		return nil, err
	}
	hdr := appendSegmentHeader(nil, start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// fail makes the log fail-stop on err and returns the wrapped error.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %v", ErrWALFailed, err)
	}
	return l.failed
}

// Append writes op as the next record and returns its sequence number.
// The record is durable only after a nil Sync.
func (l *Log) Append(op Op) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	l.buf = appendRecord(l.buf[:0], l.seq+1, op)
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, l.fail(err)
	}
	l.seq++
	l.dirty = true
	return l.seq, nil
}

// Sync makes every appended record durable. It is a no-op when nothing
// was appended since the last sync.
func (l *Log) Sync() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.dirty = false
	return nil
}

// Snapshot persists txs as the fold of the first ops ops; it is
// SnapshotFunc with the rows' stable encoding as the body.
func (l *Log) Snapshot(txs []transactions.Itemset, ops uint64) error {
	return l.SnapshotFunc(ops, func(dst []byte) ([]byte, error) { return transactions.AppendStable(dst, txs) })
}

// SnapshotFunc persists, as the fold of the first ops ops (which must be
// the log's current position), the rows that appendRows appends in the
// stable encoding of internal/transactions to the buffer it is handed. The
// log frames and checksums those bytes where they were appended, so the
// body is never copied. It then rotates to a fresh segment and
// garbage-collects older segments and snapshots. The commit point is the
// rename: a crash anywhere before it leaves the previous snapshot
// authoritative. The body is appended before any file is created, so an
// appendRows error leaves the directory as it was. The fresh segment is
// created before the rename and removed again if the snapshot fails
// first: left behind, it would make recovery cut every op later appended
// to the current segment as an abandoned suffix. A snapshot at the
// current segment's own start (right after Open) has nothing to rotate.
// So a failed snapshot leaves the log appending where recovery reads, and
// the caller keeps the longer replay tail. The log fail-stops instead
// when the fresh segment cannot be removed or the rename fails (its
// outcome is then unknown); a snapshot on a fail-stop log returns its
// error.
func (l *Log) SnapshotFunc(ops uint64, appendRows func(dst []byte) ([]byte, error)) error {
	if l.failed != nil {
		return l.failed
	}
	if ops != l.seq {
		return fmt.Errorf("wal: snapshot at op %d, log is at %d", ops, l.seq)
	}
	blob, err := frameSnapshot(ops, appendRows)
	if err != nil {
		return err
	}
	// Make the outgoing segment's records durable before the snapshot
	// claims to cover them.
	if err := l.Sync(); err != nil {
		return err
	}
	next := l.f
	if ops != l.segStart {
		if next, err = l.createSegment(ops); err != nil {
			return l.dropSegment(ops, err)
		}
	}
	if err := l.writeSnapshot(blob, ops); err != nil {
		if next != l.f {
			next.Close()
			return l.dropSegment(ops, err)
		}
		return err
	}
	if err := l.fs.Rename(snapName(ops)+".tmp", snapName(ops)); err != nil {
		if next != l.f {
			next.Close()
		}
		return l.fail(err)
	}
	// Committed: swap the appending segment and drop what the snapshot
	// superseded. GC errors are ignored — recovery skips stale files.
	if next != l.f && l.f != nil {
		l.f.Close()
	}
	l.f = next
	l.segStart = ops
	l.dirty = false
	l.gc(ops)
	return nil
}

// writeSnapshot writes and syncs the encoded snapshot blob to its temp
// file, removing the temp file on failure.
func (l *Log) writeSnapshot(blob []byte, ops uint64) error {
	tmp := snapName(ops) + ".tmp"
	sf, err := l.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := sf.Write(blob)
	if werr == nil {
		werr = sf.Sync()
	}
	if cerr := sf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		l.fs.Remove(tmp)
	}
	return werr
}

// dropSegment removes the segment a failed Snapshot created for the ops
// after ops and returns err. If the segment stays, recovery would cut
// every op later appended to the current segment, so the log fail-stops.
func (l *Log) dropSegment(ops uint64, err error) error {
	if rerr := l.fs.Remove(segName(ops)); rerr != nil {
		return l.fail(errors.Join(err, rerr))
	}
	return err
}

// gc removes segments and snapshots fully covered by the snapshot at
// ops, plus abandoned temp files.
func (l *Log) gc(ops uint64) {
	names, err := l.fs.ReadDir()
	if err != nil {
		return
	}
	for _, name := range names {
		if start, ok := parseName(name, "wal-", ".log"); ok && start < ops {
			l.fs.Remove(name)
		}
		if at, ok := parseName(name, "snap-", ".snap"); ok && at < ops {
			l.fs.Remove(name)
		}
		if len(name) > 4 && name[len(name)-4:] == ".tmp" {
			l.fs.Remove(name)
		}
	}
}

// Close syncs (under SyncAlways and SyncInterval) and closes the
// appending segment. Under SyncNever close does not imply durability.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.failed == nil && l.policy != SyncNever {
		err = l.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
