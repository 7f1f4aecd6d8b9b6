package wal

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the flat-namespace filesystem surface the log needs: one data
// directory of segment and snapshot files. Keeping it an interface is
// what makes the crash-safety property *testable*: MemFS models exactly
// which bytes a crash preserves (the fsynced prefix) and FaultFS injects
// deterministic disk errors, so the recovery contract is proven against
// a precise failure model rather than hoped-for on a real disk.
type FS interface {
	// Create creates or truncates name for writing.
	Create(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the file names in the directory.
	ReadDir() ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
}

// File is one writable log or snapshot file.
type File interface {
	io.Writer
	// Sync makes every written byte durable (fsync).
	Sync() error
	// Close releases the file without implying durability.
	Close() error
}

// DirFS returns the production FS rooted at dir, creating the directory
// if needed. Create, Rename and Remove fsync the directory so renames
// (the snapshot commit point) survive a power cut.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &osFS{dir: dir}, nil
}

// osFS implements FS over one real directory.
type osFS struct{ dir string }

func (o *osFS) Create(name string) (File, error) {
	f, err := os.Create(filepath.Join(o.dir, name))
	if err != nil {
		return nil, err
	}
	if err := o.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (o *osFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(o.dir, name))
}

func (o *osFS) ReadDir() ([]string, error) {
	entries, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (o *osFS) Rename(oldname, newname string) error {
	if err := os.Rename(filepath.Join(o.dir, oldname), filepath.Join(o.dir, newname)); err != nil {
		return err
	}
	return o.syncDir()
}

func (o *osFS) Remove(name string) error {
	if err := os.Remove(filepath.Join(o.dir, name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return o.syncDir()
}

// syncDir fsyncs the directory itself, making entry creations and
// renames durable.
func (o *osFS) syncDir() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MemFS is the in-memory FS of the crash-safety tests. It tracks, per
// file, how many bytes have been fsynced; Crash derives the directory
// state an abrupt power cut could leave behind. Directory-level
// operations (create, rename, remove) are modeled as immediately
// durable, matching osFS's directory fsyncs.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one in-memory file's contents plus its durable prefix.
type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}}
}

// Create creates or truncates name.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

// ReadFile returns a copy of name's full (not necessarily durable)
// contents.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// ReadDir lists file names in sorted order.
func (m *MemFS) ReadDir() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Rename atomically replaces newname with oldname.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove deletes name; missing files are not an error (matching osFS).
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Crash returns a new MemFS holding what a power cut at this instant
// could leave on disk: every file keeps its fsynced prefix intact, while
// the unsynced tail is torn — a rng-chosen prefix of it survives, and
// each surviving unsynced byte may be bit-flipped (partially written
// sectors). The receiver is unchanged, so one run can be crashed at many
// points.
func (m *MemFS) Crash(rng *rand.Rand) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	// Sorted order so the rng draws hit files in a fixed sequence: the
	// same seed must produce the same crash image, or the crash-recovery
	// property tests stop being reproducible.
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		keep := f.synced
		if tail := len(f.data) - f.synced; tail > 0 {
			keep += rng.Intn(tail + 1)
		}
		data := append([]byte(nil), f.data[:keep]...)
		for i := f.synced; i < keep; i++ {
			if rng.Intn(8) == 0 {
				data[i] ^= byte(1 << rng.Intn(8))
			}
		}
		out.files[name] = &memFile{data: data, synced: len(data)}
	}
	return out
}

// memHandle is an open handle onto a memFile. It keeps the file pointer
// (not the name), so a concurrent rename doesn't redirect writes — the
// same semantics as a Unix file descriptor.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("wal: write on closed file")
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("wal: sync on closed file")
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
