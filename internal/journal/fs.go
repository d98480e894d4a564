package journal

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the journal's view of its directory: flat, append-oriented, and
// small enough to abstract completely — which is what lets the tests
// inject torn writes, fsync failures, and power-loss truncation without
// touching a real disk's failure modes.
type FS interface {
	// ReadDir lists the file names in the journal directory, sorted.
	ReadDir() ([]string, error)
	// ReadFile returns a file's full contents.
	ReadFile(name string) ([]byte, error)
	// Create creates (or truncates) a file open for appending.
	Create(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts a file to size bytes — the torn-tail repair.
	Truncate(name string, size int64) error
}

// File is an append-only journal segment handle.
type File interface {
	Write(p []byte) (int, error)
	// Sync commits everything written so far to stable storage.
	Sync() error
	Close() error
}

// DirFS returns the production FS over a real directory, creating it if
// needed. Creates and removes are made durable by syncing the directory
// itself, so a crash cannot forget that a segment exists.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	return &osFS{dir: dir}, nil
}

type osFS struct {
	dir string
}

func (o *osFS) path(name string) string { return filepath.Join(o.dir, name) }

func (o *osFS) ReadDir() ([]string, error) {
	ents, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (o *osFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(o.path(name))
}

func (o *osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := o.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (o *osFS) Remove(name string) error {
	if err := os.Remove(o.path(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return o.syncDir()
}

func (o *osFS) Truncate(name string, size int64) error {
	return os.Truncate(o.path(name), size)
}

// syncDir makes directory mutations (create, remove) durable.
func (o *osFS) syncDir() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MemFS is an in-memory FS for tests that need to hand-craft journal
// contents (torn tails, boundary conditions) without a tempdir.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory journal directory.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

func (m *MemFS) ReadDir() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return append([]byte(nil), data...), nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return fs.ErrNotExist
	}
	if int64(len(data)) > size {
		m.files[name] = data[:size]
	}
	return nil
}

// WriteFile plants a file wholesale — for tests crafting exact bytes.
func (m *MemFS) WriteFile(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// FaultFS wraps an FS with deterministic write/fsync fault injection,
// mirroring faultnet's style: targeted op indices for scripted
// scenarios plus seeded probabilities for soaks. Counters are global
// across files, 1-based, so "the 3rd write fails torn" is exact.
type FaultFS struct {
	inner FS
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	writes int
	syncs  int

	// HoldSync's target: the Sync index, and the channels it closes on
	// arrival and waits on.
	holdAt        int
	held, release chan struct{}

	// Injected counts faults actually fired, so tests can assert the
	// scenario exercised something.
	injectedWrites int
	injectedSyncs  int
}

// FaultConfig parameterizes FaultFS.
type FaultConfig struct {
	// Seed drives the probabilistic faults.
	Seed int64
	// FailWrite, when > 0, makes the Nth Write (1-based, across all
	// files) a torn write: TornBytes reach the file, the rest do not,
	// and the write reports an error.
	FailWrite int
	// TornBytes is how many of the failing write's bytes still land
	// (default: half).
	TornBytes int
	// FailSync, when > 0, makes the Nth Sync (1-based) report an error
	// without syncing.
	FailSync int
	// FailRemoves makes every Remove fail — the crash-during-compaction
	// shape where old segments linger next to the snapshot.
	FailRemoves bool
	// WriteErrProb and SyncErrProb are seeded per-op fault probabilities
	// for soaks (torn at a random point, and sync error, respectively).
	WriteErrProb float64
	SyncErrProb  float64
}

// NewFaultFS wraps inner with fault injection.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	return &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Injected reports how many write and sync faults have fired.
func (f *FaultFS) Injected() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedWrites, f.injectedSyncs
}

// HoldSync makes the Nth Sync (1-based, counted like FailSync) block
// until release is called; held is closed once that Sync has arrived.
// A test uses it to keep a group-commit leader inside its fsync while
// more committers queue behind it. Hold and fail compose: if FailSync
// names the same Sync, it fails once released.
func (f *FaultFS) HoldSync(n int) (held <-chan struct{}, release func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.holdAt, f.held, f.release = n, make(chan struct{}), make(chan struct{})
	rel := f.release
	return f.held, sync.OnceFunc(func() { close(rel) })
}

func (f *FaultFS) ReadDir() ([]string, error)             { return f.inner.ReadDir() }
func (f *FaultFS) ReadFile(name string) ([]byte, error)   { return f.inner.ReadFile(name) }
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

func (f *FaultFS) Remove(name string) error {
	if f.cfg.FailRemoves {
		return fmt.Errorf("journal: injected remove failure for %s", name)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Create(name string) (File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	f.writes++
	torn := -1
	if f.cfg.FailWrite > 0 && f.writes == f.cfg.FailWrite {
		torn = f.cfg.TornBytes
		if torn <= 0 || torn >= len(p) {
			torn = len(p) / 2
		}
	} else if f.cfg.WriteErrProb > 0 && f.rng.Float64() < f.cfg.WriteErrProb {
		torn = f.rng.Intn(len(p))
	}
	if torn >= 0 {
		f.injectedWrites++
	}
	f.mu.Unlock()
	if torn >= 0 {
		ff.inner.Write(p[:torn])
		return torn, fmt.Errorf("journal: injected torn write (%d of %d bytes)", torn, len(p))
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	f.syncs++
	var held, release chan struct{}
	if f.holdAt > 0 && f.syncs == f.holdAt {
		held, release = f.held, f.release
	}
	fail := (f.cfg.FailSync > 0 && f.syncs == f.cfg.FailSync) ||
		(f.cfg.SyncErrProb > 0 && f.rng.Float64() < f.cfg.SyncErrProb)
	if fail {
		f.injectedSyncs++
	}
	f.mu.Unlock()
	if held != nil {
		close(held)
		<-release
	}
	if fail {
		return fmt.Errorf("journal: injected fsync failure")
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

// CrashFS wraps an FS and models power-loss semantics: writes pass
// through, but Crash() truncates every file back to its last-synced
// length plus a seeded random portion of the unsynced tail — so
// anything not covered by an fsync may vanish, possibly mid-record.
// This is deliberately stronger than SIGKILL (where the page cache
// survives): recovery that handles power loss handles process death for
// free.
type CrashFS struct {
	inner FS

	mu    sync.Mutex
	files map[string]*crashTrack
}

type crashTrack struct {
	size   int64 // bytes written
	synced int64 // bytes covered by the last Sync
}

// NewCrashFS wraps inner with crash tracking.
func NewCrashFS(inner FS) *CrashFS {
	return &CrashFS{inner: inner, files: map[string]*crashTrack{}}
}

func (c *CrashFS) ReadDir() ([]string, error)           { return c.inner.ReadDir() }
func (c *CrashFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

func (c *CrashFS) Create(name string) (File, error) {
	inner, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.files[name] = &crashTrack{}
	c.mu.Unlock()
	return &crashFile{fs: c, name: name, inner: inner}, nil
}

func (c *CrashFS) Remove(name string) error {
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return nil
}

func (c *CrashFS) Truncate(name string, size int64) error {
	if err := c.inner.Truncate(name, size); err != nil {
		return err
	}
	c.mu.Lock()
	if tr := c.files[name]; tr != nil {
		if tr.size > size {
			tr.size = size
		}
		if tr.synced > size {
			tr.synced = size
		}
	}
	c.mu.Unlock()
	return nil
}

// Crash simulates power loss: every tracked file is cut back to its
// synced length plus a random slice of its unsynced tail (which is how
// torn records arise naturally). All journal handles must be closed
// (Journal.Abandon) before calling. After Crash the FS is ready for the
// next generation's Open.
func (c *CrashFS) Crash(rng *rand.Rand) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, tr := range c.files {
		keep := tr.synced
		if unsynced := tr.size - tr.synced; unsynced > 0 {
			keep += rng.Int63n(unsynced + 1)
		}
		if err := c.inner.Truncate(name, keep); err != nil {
			return err
		}
		tr.size, tr.synced = keep, keep
	}
	return nil
}

type crashFile struct {
	fs    *CrashFS
	name  string
	inner File
}

func (cf *crashFile) Write(p []byte) (int, error) {
	n, err := cf.inner.Write(p)
	cf.fs.mu.Lock()
	if tr := cf.fs.files[cf.name]; tr != nil {
		tr.size += int64(n)
	}
	cf.fs.mu.Unlock()
	return n, err
}

func (cf *crashFile) Sync() error {
	if err := cf.inner.Sync(); err != nil {
		return err
	}
	cf.fs.mu.Lock()
	if tr := cf.fs.files[cf.name]; tr != nil {
		tr.synced = tr.size
	}
	cf.fs.mu.Unlock()
	return nil
}

func (cf *crashFile) Close() error { return cf.inner.Close() }
