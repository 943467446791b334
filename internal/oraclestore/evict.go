package oraclestore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// StoreStats summarises a store directory: how much disk the record files
// occupy, how many there are, and the aggregate cache-tier counters of the
// systems this process has open. Sizes count only ".tsoc" record files, so a
// stray temp file from a crashed creation never inflates the budget math.
type StoreStats struct {
	// Files and Bytes cover every record file under the store directory,
	// open or cold.
	Files int
	Bytes int64
	// OpenSystems counts the SystemCaches this Store currently has live.
	OpenSystems int
	// Hits and Misses aggregate the open systems' store-tier counters.
	Hits, Misses int64
	// EvictedFiles and EvictedBytes accumulate over this Store's lifetime.
	EvictedFiles int
	EvictedBytes int64
}

// FileStat describes one record file for eviction accounting.
type FileStat struct {
	Path    string
	Bytes   int64
	LastUse time.Time
	// Open reports whether this process holds the file's SystemCache.
	Open bool
}

// fileLastUse derives a file's LRU timestamp from the filesystem: the later
// of access and modification time. Access times are best-effort (noatime
// mounts freeze them), which is why open systems overlay their own in-process
// clock in scanLocked.
func fileLastUse(fi fs.FileInfo) time.Time {
	t := fi.ModTime()
	if at, ok := atime(fi); ok && at.After(t) {
		t = at
	}
	return t
}

// scanLocked walks the store directory for record files, overlaying the
// in-process LastUse clock of open systems. Callers hold s.mu.
func (s *Store) scanLocked() ([]FileStat, error) {
	open := make(map[string]*SystemCache, len(s.systems))
	for _, c := range s.systems {
		open[c.log.path] = c
	}
	var files []FileStat
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".tsoc") {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			// The file vanished mid-walk (a racing eviction); skip it.
			return nil
		}
		st := FileStat{Path: path, Bytes: fi.Size(), LastUse: fileLastUse(fi)}
		if c, ok := open[path]; ok {
			st.Open = true
			if lu := c.LastUse(); lu.After(st.LastUse) {
				st.LastUse = lu
			}
		}
		files = append(files, st)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: scanning %s: %v", ErrStore, s.dir, err)
	}
	return files, nil
}

// Stats reports the store's disk usage and aggregate counters.
func (s *Store) Stats() (StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.systems == nil {
		return StoreStats{}, fmt.Errorf("%w: store is closed", ErrStore)
	}
	files, err := s.scanLocked()
	if err != nil {
		return StoreStats{}, err
	}
	st := StoreStats{
		Files:        len(files),
		OpenSystems:  len(s.systems),
		EvictedFiles: s.evictedFiles,
		EvictedBytes: s.evictedBytes,
	}
	for _, f := range files {
		st.Bytes += f.Bytes
	}
	for _, c := range s.systems {
		h, m := c.Stats()
		st.Hits += h
		st.Misses += m
	}
	return st, nil
}

// Evict enforces a byte budget on the store directory with file-level LRU:
// while the record files total more than budget bytes, the least recently
// used file is removed — whole files, because each file is one system's
// answers and partial files would defeat the append-only format. Recency is
// the later of the file's atime/mtime and, for systems open in this process,
// the in-process access clock, so a system a live handle is actively
// answering from is the last candidate. Evicting an open system also drops it
// from the store's map (a later System call starts a fresh file) and empties
// its in-memory mirror — subsequent queries re-simulate and the answers are
// re-persisted into the new file.
//
// The removed files are returned oldest-first. A budget <= 0 evicts
// everything, which is a deliberate "clear the cache" spelling.
func (s *Store) Evict(budget int64) ([]FileStat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.systems == nil {
		return nil, fmt.Errorf("%w: store is closed", ErrStore)
	}
	files, err := s.scanLocked()
	if err != nil {
		return nil, err
	}
	var total int64
	for _, f := range files {
		total += f.Bytes
	}
	if total <= budget {
		return nil, nil
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].LastUse.Equal(files[j].LastUse) {
			return files[i].LastUse.Before(files[j].LastUse)
		}
		return files[i].Path < files[j].Path // stable tie-break
	})
	byPath := make(map[string]*SystemCache, len(s.systems))
	keyByPath := make(map[string][32]byte, len(s.systems))
	for k, c := range s.systems {
		byPath[c.log.path] = c
		keyByPath[c.log.path] = k
	}
	var evicted []FileStat
	for _, f := range files {
		if total <= budget {
			break
		}
		if c, ok := byPath[f.Path]; ok {
			if err := c.Evict(); err != nil {
				return evicted, err
			}
			delete(s.systems, keyByPath[f.Path])
		} else if err := s.fs.Remove(f.Path); err != nil && !os.IsNotExist(err) {
			return evicted, fmt.Errorf("%w: evicting %s: %v", ErrStore, f.Path, err)
		}
		total -= f.Bytes
		s.evictedFiles++
		s.evictedBytes += f.Bytes
		evicted = append(evicted, f)
	}
	return evicted, nil
}
