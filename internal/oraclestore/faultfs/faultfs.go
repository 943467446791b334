// Package faultfs is a fault-injecting oraclestore.FS for tests: it drives
// the store, the job journal and the out-of-core factorization through EIO
// storms, full disks and torn appends deterministically. Only tests import
// it, so no binary carries it.
package faultfs

import (
	"os"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/oraclestore"
)

// FaultOp names one class of filesystem operation a Fault can target.
type FaultOp int

const (
	// OpAny matches every operation below.
	OpAny FaultOp = iota
	// OpOpen is FS.OpenFile — opening a record file.
	OpOpen
	// OpCreate is FS.CreateTemp — the first half of atomic file creation
	// (and of the health probe).
	OpCreate
	// OpRename is FS.Rename — the publish half of atomic creation.
	OpRename
	// OpRemove is FS.Remove — eviction's delete.
	OpRemove
	// OpAppend is File.Write — the record append (and the probe write).
	OpAppend
	// OpSync is File.Sync.
	OpSync
	// OpTruncate is File.Truncate — torn-tail recovery.
	OpTruncate
	// OpChtimes is FS.Chtimes — timestamp restoration after a recovery
	// rewrite.
	OpChtimes
)

var faultOpNames = [...]string{"any", "open", "create", "rename", "remove", "append", "sync", "truncate", "chtimes"}

func (o FaultOp) String() string {
	if int(o) < len(faultOpNames) {
		return faultOpNames[o]
	}
	return "unknown"
}

// Fault is one armed failure rule. The zero value of every selector is the
// permissive default: match every op of the kind, fire forever.
type Fault struct {
	// Op selects the operations the fault applies to.
	Op FaultOp
	// Err is the error injected (syscall.EIO, syscall.ENOSPC, ...).
	Err error
	// TornBytes, on OpAppend, writes that many bytes of the record to the
	// real file before failing — a torn append, the crash mode the record
	// format's CRC recovery exists for. 0 fails cleanly without writing.
	TornBytes int
	// Count fires the fault at most Count times; 0 means until cleared.
	Count int
}

// faultState tracks one armed fault's fire count.
type faultState struct {
	Fault
	fired int
}

// FaultFS wraps an oraclestore.FS and injects configured faults by
// operation kind and count. All methods are safe for concurrent use.
type FaultFS struct {
	inner oraclestore.FS

	mu       sync.Mutex
	faults   []*faultState
	ops      map[FaultOp]int64
	injected int64
}

// New wraps inner (nil selects the real filesystem) with no faults armed.
func New(inner oraclestore.FS) *FaultFS {
	if inner == nil {
		inner = oraclestore.OSFS()
	}
	return &FaultFS{
		inner: inner,
		ops:   make(map[FaultOp]int64),
	}
}

// Inject arms a fault. Multiple faults may be armed; the first one that
// matches and fires wins per operation.
func (f *FaultFS) Inject(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, &faultState{Fault: fault})
}

// Clear disarms every fault; in-flight operations finish under the old rules.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
}

// Injected returns how many faults have fired in total.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// OpCount returns how many operations of a kind have been issued (fired or
// not).
func (f *FaultFS) OpCount(op FaultOp) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// check records one operation and decides whether a fault fires, returning
// the injected error and the torn-write byte count.
func (f *FaultFS) check(op FaultOp) (err error, torn int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[op]++
	for _, st := range f.faults {
		if st.Op != OpAny && st.Op != op {
			continue
		}
		if st.Count > 0 && st.fired >= st.Count {
			continue
		}
		st.fired++
		f.injected++
		return st.Err, st.TornBytes
	}
	return nil, 0
}

// apply runs the fault decision for op around fn: either the injected error
// or the real operation.
func (f *FaultFS) apply(op FaultOp, fn func() error) error {
	if err, _ := f.check(op); err != nil {
		return err
	}
	return fn()
}

// MkdirAll implements oraclestore.FS (never faulted: directory creation is
// part of store bootstrap, whose failure is an ordinary Open error).
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// Stat implements oraclestore.FS.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// CreateTemp implements oraclestore.FS.
func (f *FaultFS) CreateTemp(dir, pattern string) (oraclestore.File, error) {
	var file oraclestore.File
	err := f.apply(OpCreate, func() error {
		var e error
		file, e = f.inner.CreateTemp(dir, pattern)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f}, nil
}

// OpenFile implements oraclestore.FS.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (oraclestore.File, error) {
	var file oraclestore.File
	err := f.apply(OpOpen, func() error {
		var e error
		file, e = f.inner.OpenFile(name, flag, perm)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f}, nil
}

// Rename implements oraclestore.FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.apply(OpRename, func() error { return f.inner.Rename(oldpath, newpath) })
}

// Remove implements oraclestore.FS.
func (f *FaultFS) Remove(name string) error {
	return f.apply(OpRemove, func() error { return f.inner.Remove(name) })
}

// Chtimes implements oraclestore.FS.
func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.apply(OpChtimes, func() error { return f.inner.Chtimes(name, atime, mtime) })
}

// faultFile wraps an oraclestore.File, routing Write/Sync/Truncate through the fault
// rules. Reads pass through untouched — the store's read path is in-memory
// after load, and load corruption is better exercised with real torn files.
type faultFile struct {
	f  oraclestore.File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	err, torn := w.fs.check(OpAppend)
	if err != nil {
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, werr := w.f.Write(p[:torn])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	return w.fs.apply(OpSync, w.f.Sync)
}

func (w *faultFile) Truncate(size int64) error {
	return w.fs.apply(OpTruncate, func() error { return w.f.Truncate(size) })
}

func (w *faultFile) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }
func (w *faultFile) Seek(offset int64, whence int) (int64, error) {
	return w.f.Seek(offset, whence)
}
func (w *faultFile) Close() error               { return w.f.Close() }
func (w *faultFile) Name() string               { return w.f.Name() }
func (w *faultFile) Stat() (os.FileInfo, error) { return w.f.Stat() }

// spillFS adapts an oraclestore.FS to the factorization layer's
// linalg.SpillFS, so out-of-core panel spilling runs through the same fault
// rules as the record files. oraclestore.File structurally satisfies
// linalg.SpillFile; only CreateTemp's return type needs the shim.
type spillFS struct{ fs oraclestore.FS }

// AsSpillFS wraps fs for linalg's out-of-core factorization.
func AsSpillFS(fs oraclestore.FS) linalg.SpillFS { return spillFS{fs} }

func (s spillFS) MkdirAll(path string, perm os.FileMode) error { return s.fs.MkdirAll(path, perm) }
func (s spillFS) Remove(name string) error                     { return s.fs.Remove(name) }
func (s spillFS) CreateTemp(dir, pattern string) (linalg.SpillFile, error) {
	f, err := s.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
