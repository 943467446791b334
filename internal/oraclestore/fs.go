package oraclestore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// FS is the filesystem seam every store disk operation goes through. The
// production implementation (osFS) forwards to the os package; tests inject
// a faultfs.FaultFS to exercise the store's degradation paths — EIO storms,
// ENOSPC, torn appends, latency — without a real failing disk.
//
// The seam deliberately covers only the operations the record format's
// crash-safety story depends on: file creation (temp + rename), append
// writes, fsync, truncation and removal. Directory walking for
// eviction/stats stays on the real filesystem — it is read-only and its
// failure modes (a file vanishing mid-walk) are already tolerated.
type FS interface {
	// MkdirAll mirrors os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Stat mirrors os.Stat.
	Stat(name string) (os.FileInfo, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile mirrors os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename mirrors os.Rename — the atomic-publish step of file creation.
	Rename(oldpath, newpath string) error
	// Remove mirrors os.Remove — eviction's delete.
	Remove(name string) error
	// Chtimes mirrors os.Chtimes — timestamp restoration after recovery
	// rewrites, so healing a torn tail does not refresh a cold file's LRU
	// clock and promote it over genuinely warm ones.
	Chtimes(name string, atime, mtime time.Time) error
}

// File is the per-handle half of FS: exactly the *os.File methods the record
// reader and appender use.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// osFS is the production FS: the os package, verbatim.
type osFS struct{}

// OSFS returns the real-filesystem FS used when no seam is injected.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFileAtomic publishes data at path so readers only ever observe whole
// files: it writes a temp file in the same directory (creating the directory
// if needed), fsyncs it and renames it into place.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	tmp, err := fsys.CreateTemp(dir, ".tsoc-tmp-*")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: writing %s: %v", ErrStore, path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}
