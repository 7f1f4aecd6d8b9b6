package wal

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjectedFault is the error every FaultFS-injected failure wraps, so
// tests can tell injected faults from real bugs.
var ErrInjectedFault = errors.New("wal: injected fault")

// FaultPlan is a seeded, deterministic disk-fault schedule: the same
// plan over the same operation sequence injects the same faults, which
// is what makes the crash-recovery property tests reproducible.
type FaultPlan struct {
	// Seed drives the fault RNG.
	Seed int64
	// WriteErr is the probability a Write fails outright (no bytes land).
	WriteErr float64
	// ShortWrite is the probability a Write lands only a random prefix
	// before failing (a torn write).
	ShortWrite float64
	// SyncErr is the probability a Sync fails (the bytes stay volatile).
	SyncErr float64
}

// FaultFS wraps an FS and injects the plan's faults into file writes and
// syncs. Directory operations are passed through: the interesting
// crash-safety surface is the data path. An injected error need not end
// a run: one in a segment fail-stops the log, but a failed snapshot
// leaves it appending, so later faults meet a live log.
type FaultFS struct {
	inner FS
	plan  FaultPlan
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewFaultFS returns an FS injecting plan's faults over inner.
func NewFaultFS(inner FS, plan FaultPlan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Create opens a fault-injecting handle on inner's file.
func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// ReadFile reads from the inner FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// ReadDir lists the inner FS.
func (f *FaultFS) ReadDir() ([]string, error) { return f.inner.ReadDir() }

// Rename renames on the inner FS.
func (f *FaultFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }

// Remove removes on the inner FS.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// roll draws one fault decision under the lock (handles may be used from
// whatever goroutine owns the log).
func (f *FaultFS) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// prefix draws a torn-write length in [0, n).
func (f *FaultFS) prefix(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

// faultFile injects write/sync faults on one open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.fs.roll(ff.fs.plan.WriteErr) {
		return 0, errors.Join(ErrInjectedFault, errors.New("write error"))
	}
	if len(p) > 0 && ff.fs.roll(ff.fs.plan.ShortWrite) {
		n := ff.fs.prefix(len(p))
		if _, err := ff.inner.Write(p[:n]); err != nil {
			return 0, err
		}
		return n, errors.Join(ErrInjectedFault, errors.New("short write"))
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.fs.roll(ff.fs.plan.SyncErr) {
		return errors.Join(ErrInjectedFault, errors.New("sync error"))
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
