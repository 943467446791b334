package oraclestore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// diskCounters aggregates disk accounting across the logs that share them —
// every cache of a Store, or one RecordLog — the raw material of the
// service's degradation metrics.
type diskCounters struct {
	// retries counts append attempts repeated after a failed write.
	retries atomic.Int64
	// failures counts appends that exhausted their retry budget.
	failures atomic.Int64
	// unpersisted counts frames memoized in RAM only, because the disk path
	// failed or the breaker was open when they were produced. They answer
	// warm for this process's lifetime but are lost on restart.
	unpersisted atomic.Int64
	// appendedBytes totals the frame bytes that reached disk — a cheap growth
	// signal, so budget enforcers can skip the directory walk when nothing
	// new has been persisted.
	appendedBytes atomic.Int64
}

// logDeps is the plumbing an appendLog writes through: the filesystem seam,
// the retry policy, and the breaker and counters it shares with its owner.
type logDeps struct {
	fs    FS
	retry RetryPolicy
	brk   *Breaker
	fc    *diskCounters
}

// appendLog is the file discipline under both append-only formats, the
// system record files and RecordLogs: a fixed header followed by
// self-checking frames. It owns creation with the header, the header check
// and reset, replay, torn-tail truncation, appends with retry and torn-tail
// healing, retirement to memory-only, Sync and Close. What a frame holds is
// the caller's business: it passes the header bytes and a frame reader.
//
// An appendLog is not safe for concurrent use; its owner serialises every
// call under its own lock.
type appendLog struct {
	logDeps
	path string

	// f is nil while the log is memory-only and once it is closed.
	f       File
	memOnly bool

	appended  int64 // frames this handle wrote to disk
	recovered int64 // torn or corrupt bytes discarded at open
}

// frameReader decodes the next frame from r, which holds left more bytes,
// and returns its encoded length. n == 0 ends the valid prefix: a clean end
// of file, or a torn or corrupt frame. A non-nil error aborts the open.
type frameReader func(r io.Reader, left int64) (n int, err error)

// errSkipped is append's report that the frame never went to disk because the
// log is memory-only or the breaker is open.
var errSkipped = errors.New("oraclestore: append skipped")

// openAppendLog opens (creating if needed) the log at path and replays every
// valid frame through read. A file whose header is not exactly hdr is reset
// to hdr: the log holds derived data, so discarding it is safer than
// answering for the wrong system or schema. The first torn or corrupt frame
// and everything after it are truncated, so appends resume at the end of the
// valid prefix. healed is the file's stat from before the open rewrote it,
// nil when the open rewrote nothing.
func openAppendLog(path string, hdr []byte, deps logDeps, read frameReader) (l *appendLog, healed os.FileInfo, err error) {
	// A missing file is published complete, header included, so no handle
	// can ever observe (or race to write) a partial header: two creators
	// each publish a whole file and the second rename wins — the loser's
	// handle appends to an unlinked inode, losing its frames but corrupting
	// nothing.
	if _, err := deps.fs.Stat(path); os.IsNotExist(err) {
		if err := WriteFileAtomic(deps.fs, path, hdr); err != nil {
			return nil, nil, err
		}
	}
	// O_APPEND: every frame lands atomically at the true end of the file, so
	// a second handle on the same path can at worst append duplicates, never
	// overwrite bytes mid-frame.
	f, err := deps.fs.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	l = &appendLog{logDeps: deps, path: path, f: f}
	st, err := l.load(hdr, read)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if l.recovered > 0 {
		healed = st
	}
	return l, healed, nil
}

// memAppendLog builds a log that never touches disk: every append is counted
// as unpersisted.
func memAppendLog(path string, deps logDeps) *appendLog {
	return &appendLog{logDeps: deps, path: path, memOnly: true}
}

// load checks the header, replays the valid frames and discards the rest,
// leaving the write offset at the end of the valid prefix. It returns the
// file's stat from before it changed anything.
func (l *appendLog) load(hdr []byte, read frameReader) (os.FileInfo, error) {
	st, err := l.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	size := st.Size()
	good := int64(len(hdr))
	if size >= good {
		r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), 1<<16)
		got := make([]byte, len(hdr))
		if _, err := io.ReadFull(r, got); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", ErrStore, err)
		}
		if bytes.Equal(got, hdr) {
			n, err := walkFrames(r, size-good, read)
			good += n
			if err != nil {
				return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrStore, good, err)
			}
			l.recovered = size - good
			if l.recovered > 0 {
				if err := l.f.Truncate(good); err != nil {
					return nil, fmt.Errorf("%w: truncating corrupt tail: %v", ErrStore, err)
				}
			}
			if _, err := l.f.Seek(good, io.SeekStart); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrStore, err)
			}
			return st, nil
		}
	}
	// Too short for a header (a creator died before it landed), or a header
	// for another system or schema: start over.
	l.recovered = size
	if err := l.f.Truncate(0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	if _, err := l.f.Write(hdr); err != nil {
		return nil, fmt.Errorf("%w: writing header: %v", ErrStore, err)
	}
	return st, nil
}

// walkFrames reads frames from r, which holds size bytes, up to the end of
// the valid prefix and returns that prefix's length.
func walkFrames(r io.Reader, size int64, read frameReader) (int64, error) {
	var good int64
	for {
		n, err := read(r, size-good)
		if n == 0 || err != nil {
			return good, err
		}
		good += int64(n)
	}
}

// append persists one encoded frame. It degrades instead of failing: a
// memory-only log or an open breaker skips the disk (errSkipped), and a write
// that fails after retries feeds the breaker; either way the frame is counted
// as unpersisted. It returns nil once the frame is on disk.
func (l *appendLog) append(frame []byte) error {
	if l.memOnly || !l.brk.Allow() {
		l.fc.unpersisted.Add(1)
		return errSkipped
	}
	if err := l.write(frame); err != nil {
		l.brk.Failure(err)
		l.fc.failures.Add(1)
		l.fc.unpersisted.Add(1)
		return err
	}
	l.brk.Success()
	l.appended++
	l.fc.appendedBytes.Add(int64(len(frame)))
	return nil
}

// write appends frame under the retry policy. A partial (torn) write is
// healed before the retry by truncating the file back to its pre-write size —
// legal because the owner's lock makes this handle the only in-process writer
// and O_APPEND put the write at EOF. If that truncate fails the file can no
// longer be trusted not to carry garbage mid-stream, so the log retires to
// memory-only rather than append frames a future open would discard (that
// open truncates the torn tail by its check, losing only what this process
// failed to persist anyway).
func (l *appendLog) write(frame []byte) error {
	var lastErr error
	for attempt := 0; attempt < l.retry.Attempts; attempt++ {
		if attempt > 0 {
			l.fc.retries.Add(1)
			time.Sleep(l.retry.backoff(attempt - 1))
		}
		n, werr := l.f.Write(frame)
		if werr == nil {
			return nil
		}
		lastErr = werr
		if n > 0 {
			st, err := l.f.Stat()
			if err == nil {
				err = l.f.Truncate(st.Size() - int64(n))
			}
			if err != nil {
				l.f.Close()
				l.f = nil
				l.memOnly = true
				return fmt.Errorf("append failed (%v); torn-tail truncate failed: %w", werr, err)
			}
		}
	}
	return lastErr
}

// sync flushes appended frames to stable storage.
func (l *appendLog) sync() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// close syncs and closes the file. A memory-only log has none and stays as
// it is.
func (l *appendLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}
