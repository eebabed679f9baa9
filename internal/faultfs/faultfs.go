// Package faultfs is the syscall seam under the durable tier: a small
// filesystem interface (open/write/sync/rename/remove/truncate) that
// internal/store routes every disk operation through, with two
// implementations. OS is a zero-cost passthrough to the real calls —
// *os.File itself satisfies File, so the happy path is plain interface
// dispatch, no wrapping, no allocation. Injector wraps any FS with a
// deterministic, seeded fault script: EIO on the k-th write, ENOSPC,
// short writes, slow fsyncs, fsyncs that report success while dropping
// data, and a crash switch that kills every operation after the k-th
// mutation and then *tears* the files — reverting each one to its
// last-fsynced content plus a seeded prefix of the unsynced tail, the
// way a lost page cache does.
//
// Building on Quicksand's §2–3 premise is that the substrate lies, and
// fault tolerance is only real if it is tested against the lies. The
// hand-picked torn-tail cases of the early store tests sample a few
// points in the crash space; this seam makes the whole space
// enumerable: count the mutating syscalls a workload performs, then
// replay it once per k with "die after syscall k", and recovery must
// reach the identical state at every k. That sweep lives in
// internal/store's crash-point tests; this package only supplies the
// determinism.
//
// # The tear model
//
// Write-through with mirrors: every write lands in the real file
// immediately (so reads and replays observe it), while the injector
// keeps an in-memory mirror per writable file recording (a) the bytes
// as the process sees them and (b) the bytes as of the last honored
// fsync. Tear() reconciles the real directory with what a crash at
// that moment could have preserved: each file reverts to its synced
// image plus a seeded-length prefix of whatever was appended since —
// including zero bytes of it. Unsynced overwrites of already-synced
// regions (a rewritten header, say) revert entirely. Directory-level
// operations — create, rename, remove — are modeled as durable and
// atomic at the moment they return: the store already orders them
// behind explicit directory fsyncs, and rename atomicity is the
// contract snapshots are built on. A sync the script chose to lie
// about does not advance the mirror, and the tear keeps none of the file's
// unsynced bytes (preallocated or not) until an honored sync follows, so
// data the caller was told is durable vanishes — the fsync-lies fault.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// File is the slice of *os.File the store needs. *os.File satisfies it
// directly, so the passthrough FS hands out real files untouched.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem surface the durable tier consumes. Methods
// mirror the os/filepath calls they replace, one for one.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens read-only — the store uses it to fsync directories.
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Glob(pattern string) ([]string, error)
}

// OS is the passthrough FS: the real syscalls, nothing between.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) Glob(pattern string) ([]string, error)      { return filepath.Glob(pattern) }

// OpKind names one intercepted operation class.
type OpKind uint8

const (
	OpCreate   OpKind = iota // OpenFile with O_CREATE or O_TRUNC
	OpWrite                  // File.Write
	OpWriteAt                // File.WriteAt
	OpSync                   // File.Sync (files and directories alike)
	OpTruncate               // File.Truncate or FS.Truncate
	OpRename                 // FS.Rename
	OpRemove                 // FS.Remove
	OpMkdir                  // FS.MkdirAll
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpWriteAt:
		return "writeat"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpMkdir:
		return "mkdir"
	}
	return "unknown"
}

// Op describes one mutating operation as the script sees it.
type Op struct {
	K    int // 1-based index among all mutating operations so far
	Kind OpKind
	Path string
	Size int // bytes involved (writes and truncates; 0 otherwise)
}

// Decision is the script's verdict on one operation.
type Decision struct {
	// Err fails the operation with this error (wrapped in an
	// *fs.PathError so it reads like the real thing). syscall.EIO and
	// syscall.ENOSPC are the usual tenants.
	Err error
	// Keep lets the first Keep bytes of a failing write land anyway —
	// the short-write fault. Meaningful only with Err set on a write.
	Keep int
	// LieSync makes a sync report success without honoring it: the
	// mirror's durable image does not advance, so the "durable" bytes
	// still vanish at the next Tear. Meaningful only on OpSync.
	LieSync bool
	// Delay makes a sync take this much longer to land — the slow-disk
	// fault. It is slept off outside the injector's lock, so operations
	// on other files are not serialized behind it, and before the sync
	// itself, so a crash mid-delay loses exactly what a crash mid-fsync
	// would. Meaningful only on OpSync.
	Delay time.Duration
}

// Script decides the fate of each mutating operation. It runs under
// the injector's lock: keep it pure. A nil script injects nothing.
type Script func(op Op) Decision

// ErrCrashed marks every operation refused after the crash point: the
// simulated process is dead, there is no one left to issue syscalls.
var ErrCrashed = errors.New("faultfs: crashed (injected)")

// mirror tracks one writable file's two images: mem is the content the
// process believes in, synced the content the last honored fsync made
// durable. lied marks a sync the script lied about since then.
type mirror struct {
	mem    []byte
	synced []byte
	lied   bool
}

// Injector wraps an FS with a deterministic fault plan. Zero value is
// not usable; build with New.
type Injector struct {
	inner  FS
	script Script
	rng    *rand.Rand

	mu      sync.Mutex
	k       int // mutating operations observed
	crashAt int // die after this many mutations; -1 = never
	crashed bool
	files   map[string]*mirror
}

// New wraps inner with a fault plan. seed drives the tear lengths (how
// much of each unsynced tail survives a crash); script may be nil.
func New(inner FS, seed int64, script Script) *Injector {
	return &Injector{
		inner:   inner,
		script:  script,
		rng:     rand.New(rand.NewSource(seed)),
		crashAt: -1,
		files:   map[string]*mirror{},
	}
}

// CrashAfter arms the crash switch: the first k mutating operations
// proceed (subject to the script), every later operation — reads
// included — fails with ErrCrashed. k=0 dies before the first
// mutation.
func (i *Injector) CrashAfter(k int) {
	i.mu.Lock()
	i.crashAt = k
	i.mu.Unlock()
}

// Ops reports how many mutating operations have been observed — the N
// a crash-point enumerator sweeps k across.
func (i *Injector) Ops() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.k
}

// Crashed reports whether the crash switch has tripped.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// step admits one mutating operation: it trips the crash switch when
// armed, numbers the op, and consults the script.
func (i *Injector) step(kind OpKind, path string, size int) (Decision, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return Decision{}, pathErr(kind.String(), path, ErrCrashed)
	}
	if i.crashAt >= 0 && i.k >= i.crashAt {
		i.crashed = true
		return Decision{}, pathErr(kind.String(), path, ErrCrashed)
	}
	i.k++
	if i.script == nil {
		return Decision{}, nil
	}
	return i.script(Op{K: i.k, Kind: kind, Path: path, Size: size}), nil
}

// gate admits one non-mutating operation: free while alive, refused
// once crashed.
func (i *Injector) gate(op, path string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return pathErr(op, path, ErrCrashed)
	}
	return nil
}

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

func (i *Injector) MkdirAll(path string, perm fs.FileMode) error {
	d, err := i.step(OpMkdir, path, 0)
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("mkdir", path, d.Err)
	}
	return i.inner.MkdirAll(path, perm)
}

func (i *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		d, err := i.step(OpCreate, name, 0)
		if err != nil {
			return nil, err
		}
		if d.Err != nil {
			return nil, pathErr("open", name, d.Err)
		}
	} else if err := i.gate("open", name); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{inj: i, path: name, f: f}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		// Track a mirror for every writable file. Whatever is on disk at
		// open is durable already; only writes from here on can tear. A
		// path opened before keeps its mirror — reopening must not
		// launder an unsynced tail into the durable image.
		var base []byte
		if flag&os.O_TRUNC == 0 {
			base, _ = i.inner.ReadFile(name)
		}
		i.mu.Lock()
		m, ok := i.files[name]
		switch {
		case !ok:
			m = &mirror{mem: append([]byte(nil), base...), synced: append([]byte(nil), base...)}
			i.files[name] = m
		case flag&os.O_TRUNC != 0:
			m.mem, m.synced = m.mem[:0], m.synced[:0]
		}
		i.mu.Unlock()
		ff.m = m
	}
	return ff, nil
}

func (i *Injector) Open(name string) (File, error) {
	if err := i.gate("open", name); err != nil {
		return nil, err
	}
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: i, path: name, f: f}, nil
}

func (i *Injector) ReadFile(name string) ([]byte, error) {
	if err := i.gate("read", name); err != nil {
		return nil, err
	}
	return i.inner.ReadFile(name)
}

func (i *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := i.gate("readdir", name); err != nil {
		return nil, err
	}
	return i.inner.ReadDir(name)
}

func (i *Injector) Rename(oldpath, newpath string) error {
	d, err := i.step(OpRename, oldpath, 0)
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("rename", oldpath, d.Err)
	}
	if err := i.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	i.mu.Lock()
	if m, ok := i.files[oldpath]; ok {
		i.files[newpath] = m
		delete(i.files, oldpath)
	}
	i.mu.Unlock()
	return nil
}

func (i *Injector) Remove(name string) error {
	d, err := i.step(OpRemove, name, 0)
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("remove", name, d.Err)
	}
	if err := i.inner.Remove(name); err != nil {
		return err
	}
	i.mu.Lock()
	delete(i.files, name)
	i.mu.Unlock()
	return nil
}

func (i *Injector) Truncate(name string, size int64) error {
	d, err := i.step(OpTruncate, name, int(size))
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("truncate", name, d.Err)
	}
	if err := i.inner.Truncate(name, size); err != nil {
		return err
	}
	i.mu.Lock()
	if m, ok := i.files[name]; ok {
		m.resize(size)
	}
	i.mu.Unlock()
	return nil
}

func (i *Injector) Glob(pattern string) ([]string, error) {
	if err := i.gate("glob", pattern); err != nil {
		return nil, err
	}
	return i.inner.Glob(pattern)
}

// Tear reconciles the real directory with what a crash right now could
// have preserved: every tracked file reverts to its last-synced image
// plus a seeded-length prefix of the bytes appended since. Call it
// after the owning store has been crashed (no handles left), before
// reopening with a passthrough FS to recover. Paths are processed in
// sorted order so a given seed always tears the same way.
func (i *Injector) Tear() error {
	i.mu.Lock()
	paths := make([]string, 0, len(i.files))
	for p := range i.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	type job struct {
		path    string
		content []byte
	}
	jobs := make([]job, 0, len(paths))
	for _, p := range paths {
		m := i.files[p]
		survivor := append([]byte(nil), m.synced...)
		if tail := len(m.mem) - len(m.synced); tail > 0 && !m.lied {
			keep := i.rng.Intn(tail + 1)
			survivor = append(survivor, m.mem[len(m.synced):len(m.synced)+keep]...)
		}
		jobs = append(jobs, job{path: p, content: survivor})
	}
	i.mu.Unlock()
	for _, j := range jobs {
		f, err := i.inner.OpenFile(j.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(j.content); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// faultFile routes one file's operations through the injector.
type faultFile struct {
	inj  *Injector
	path string
	f    File
	m    *mirror // nil for read-only handles
	off  int64   // current write position, tracked for the mirror
}

func (f *faultFile) Write(p []byte) (int, error) {
	d, err := f.inj.step(OpWrite, f.path, len(p))
	if err != nil {
		return 0, err
	}
	n := len(p)
	if d.Err != nil {
		n = d.Keep
		if n > len(p) {
			n = len(p)
		}
	}
	var wrote int
	if n > 0 {
		wrote, err = f.f.Write(p[:n])
		f.apply(f.off, p[:wrote])
		f.off += int64(wrote)
		if err != nil {
			return wrote, err
		}
	}
	if d.Err != nil {
		return wrote, pathErr("write", f.path, d.Err)
	}
	return wrote, nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	d, err := f.inj.step(OpWriteAt, f.path, len(p))
	if err != nil {
		return 0, err
	}
	n := len(p)
	if d.Err != nil {
		n = d.Keep
		if n > len(p) {
			n = len(p)
		}
	}
	var wrote int
	if n > 0 {
		wrote, err = f.f.WriteAt(p[:n], off)
		f.apply(off, p[:wrote])
		if err != nil {
			return wrote, err
		}
	}
	if d.Err != nil {
		return wrote, pathErr("write", f.path, d.Err)
	}
	return wrote, nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.inj.gate("read", f.path); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.inj.gate("seek", f.path); err != nil {
		return 0, err
	}
	pos, err := f.f.Seek(offset, whence)
	if err == nil {
		f.off = pos
	}
	return pos, err
}

func (f *faultFile) Sync() error {
	d, err := f.inj.step(OpSync, f.path, 0)
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("sync", f.path, d.Err)
	}
	time.Sleep(d.Delay)
	if d.LieSync {
		// Report success, honor nothing: the durable image stays where
		// it was, so these bytes vanish at the next Tear.
		if f.m != nil {
			f.inj.mu.Lock()
			f.m.lied = true
			f.inj.mu.Unlock()
		}
		return nil
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	if f.m != nil {
		f.inj.mu.Lock()
		f.m.synced, f.m.lied = append(f.m.synced[:0], f.m.mem...), false
		f.inj.mu.Unlock()
	}
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	d, err := f.inj.step(OpTruncate, f.path, int(size))
	if err != nil {
		return err
	}
	if d.Err != nil {
		return pathErr("truncate", f.path, d.Err)
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	if f.m != nil {
		f.inj.mu.Lock()
		f.m.resize(size)
		f.inj.mu.Unlock()
	}
	return nil
}

func (f *faultFile) Close() error {
	if err := f.inj.gate("close", f.path); err != nil {
		f.f.Close()
		return err
	}
	return f.f.Close()
}

func (f *faultFile) Stat() (fs.FileInfo, error) {
	if err := f.inj.gate("stat", f.path); err != nil {
		return nil, err
	}
	return f.f.Stat()
}

// apply folds one write into the mirror's live image.
func (f *faultFile) apply(off int64, p []byte) {
	if f.m == nil || len(p) == 0 {
		return
	}
	f.inj.mu.Lock()
	defer f.inj.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(f.m.mem)) < end {
		f.m.mem = append(f.m.mem, make([]byte, end-int64(len(f.m.mem)))...)
	}
	copy(f.m.mem[off:end], p)
}

// resize adjusts the live image to a truncate: shrink drops the tail,
// extend zero-fills (and the zeros are unsynced until the next honored
// fsync, exactly like the real page cache).
func (m *mirror) resize(size int64) {
	switch {
	case int64(len(m.mem)) > size:
		m.mem = m.mem[:size]
		if int64(len(m.synced)) > size {
			m.synced = m.synced[:size]
		}
	case int64(len(m.mem)) < size:
		m.mem = append(m.mem, make([]byte, size-int64(len(m.mem)))...)
	}
}
