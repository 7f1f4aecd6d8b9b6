package main

import (
	"context"
	"strings"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/wal"
)

// countingFS is a wal.FS that forwards everything to an in-memory
// filesystem and counts what the program asks of the device: syncs,
// writes, and bytes written to log segments versus snapshot files. The
// device itself is left out of the timing on purpose — the shared disk of
// a sandbox is neither ours nor stable — so the write path is judged by
// how often it goes to the device, not by how fast this device answers.
// With a tracer attached, every write and sync is also a leaf span.
type countingFS struct {
	// Mem is the wrapped filesystem; Mem.Crash still gives the image a
	// power cut would leave.
	Mem *wal.MemFS
	// tr is swapped by the harness between ops while the program's ingest
	// goroutine may still be writing.
	tr atomic.Pointer[tracer]

	syncs, writes       atomic.Int64
	logBytes, snapBytes atomic.Int64
}

// newCountingFS wraps an empty MemFS.
func newCountingFS() *countingFS { return &countingFS{Mem: wal.NewMemFS()} }

// fsCounts is a snapshot of a countingFS's counters.
type fsCounts struct{ syncs, writes, logBytes, snapBytes int64 }

// counts reads the counters.
func (c *countingFS) counts() fsCounts {
	return fsCounts{c.syncs.Load(), c.writes.Load(), c.logBytes.Load(), c.snapBytes.Load()}
}

// Create implements wal.FS; files ending in .log are log segments, every
// other file (snapshots and their temporaries) counts as snapshot bytes.
func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.Mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{fs: c, inner: f, log: strings.HasSuffix(name, ".log")}, nil
}

// ReadFile implements wal.FS.
func (c *countingFS) ReadFile(name string) ([]byte, error) { return c.Mem.ReadFile(name) }

// ReadDir implements wal.FS.
func (c *countingFS) ReadDir() ([]string, error) { return c.Mem.ReadDir() }

// Rename implements wal.FS.
func (c *countingFS) Rename(oldname, newname string) error { return c.Mem.Rename(oldname, newname) }

// Remove implements wal.FS.
func (c *countingFS) Remove(name string) error { return c.Mem.Remove(name) }

// countingFile is one open file of a countingFS.
type countingFile struct {
	fs    *countingFS
	inner wal.File
	log   bool
}

// Write implements wal.File.
func (f *countingFile) Write(p []byte) (int, error) {
	tr := f.fs.tr.Load()
	start := tr.clock()
	n, err := f.inner.Write(p)
	f.fs.writes.Add(1)
	if f.log {
		f.fs.logBytes.Add(int64(n))
		tr.leaf("wal.log_write", start)
	} else {
		f.fs.snapBytes.Add(int64(n))
		tr.leaf("wal.snap_write", start)
	}
	return n, err
}

// Sync implements wal.File.
func (f *countingFile) Sync() error {
	tr := f.fs.tr.Load()
	start := tr.clock()
	err := f.inner.Sync()
	f.fs.syncs.Add(1)
	tr.leaf("wal.sync", start)
	return err
}

// Close implements wal.File.
func (f *countingFile) Close() error { return f.inner.Close() }

// timingTransport is a dist.Transport that forwards every call and
// records it as a leaf span, "dist.ship" for shard shipping and
// "dist.count" for every scan request, so a distributed mine's time can be
// split into shipping, remote counting and the coordinator's own work.
type timingTransport struct {
	inner dist.Transport
	tr    *tracer
	calls atomic.Int64
}

// NumWorkers implements dist.Transport.
func (t *timingTransport) NumWorkers() int { return t.inner.NumWorkers() }

// Call implements dist.Transport.
func (t *timingTransport) Call(ctx context.Context, w int, method string, args, reply any) error {
	start := t.tr.clock()
	err := t.inner.Call(ctx, w, method, args, reply)
	t.calls.Add(1)
	name := "dist.count"
	if method == dist.MethodShip {
		name = "dist.ship"
	}
	t.tr.leaf(name, start)
	return err
}

// Close implements dist.Transport.
func (t *timingTransport) Close() error { return t.inner.Close() }
