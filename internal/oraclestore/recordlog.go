package oraclestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// RecordLog is a crash-safe append-only log of CRC-framed byte frames: the
// same file discipline as the system record files (one appendLog serves
// both), with a caller-defined payload. The schedule service journals job
// state transitions through one.
//
// On-disk format, little-endian and append-only like the system record files:
//
//	header:  magic "TSRECLG1" | u32 version | 32-byte tag
//	frame:   u32 len | len payload bytes | u32 crc32(payload)
//
// The tag names the log's schema (callers hash a stable string into it), so a
// log can never replay frames written by a different subsystem. Opening a log
// replays every valid frame and truncates the first torn or corrupt one —
// the write-ahead-log recovery rule. Appends are single writes on an O_APPEND
// descriptor, retried with backoff and torn-tail healing; a log whose disk
// path keeps failing (or whose breaker is open) degrades to memory-only —
// appends succeed but are counted as unpersisted — instead of failing the
// caller. The log has its own breaker and counters, apart from any Store's.
type RecordLog struct {
	fc diskCounters

	mu       sync.Mutex
	log      *appendLog
	closed   bool
	replayed int // frames replayed at open
}

const (
	recordLogVersion = 1
	// maxFrameLen bounds a frame's payload; journal payloads are small JSON
	// documents.
	maxFrameLen = 16 << 20
)

var recordLogMagic = [8]byte{'T', 'S', 'R', 'E', 'C', 'L', 'G', '1'}

// RecordLogOptions tunes a RecordLog's fault plumbing; the zero value is the
// production default (real filesystem, default retry/breaker policies).
type RecordLogOptions struct {
	// FS is the filesystem seam; nil selects the real filesystem.
	FS FS
	// Retry is the append retry policy (zero: 4 attempts, 1ms base, 50ms cap).
	Retry RetryPolicy
	// Breaker is the circuit-breaker policy (zero: 3 failures, 5s probe).
	Breaker BreakerPolicy
}

// OpenRecordLog opens (creating if needed) the log at path, verifies the
// header against tag, replays every valid frame through replay in append
// order, and truncates any torn or corrupt tail so appends resume from a
// consistent offset. A mismatched header (wrong magic, version or tag) resets
// the file: the log holds derived state, so answering for the wrong schema is
// worse than starting empty. A replay error aborts the open — the caller's
// decoder is the schema authority.
func OpenRecordLog(path string, tag [32]byte, opts RecordLogOptions, replay func(payload []byte) error) (*RecordLog, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	l := &RecordLog{}
	deps := logDeps{fs: fsys, retry: opts.Retry.withDefaults(), brk: NewBreaker(opts.Breaker), fc: &l.fc}
	hdr := make([]byte, 0, 8+4+32) // magic | version | tag
	hdr = append(hdr, recordLogMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, recordLogVersion)
	hdr = append(hdr, tag[:]...)
	log, _, err := openAppendLog(path, hdr, deps, func(r io.Reader, left int64) (int, error) {
		payload, n := readFrame(r, left)
		if n == 0 {
			return 0, nil
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				return 0, fmt.Errorf("replaying log frame: %v", err)
			}
		}
		l.replayed++
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	l.log = log
	return l, nil
}

// NewMemRecordLog builds a log that never touches disk: appends succeed and
// are counted as unpersisted, nothing survives the process. Used when the
// caller has no durable directory configured.
func NewMemRecordLog() *RecordLog {
	l := &RecordLog{}
	l.log = memAppendLog("", logDeps{retry: RetryPolicy{}.withDefaults(), brk: NewBreaker(BreakerPolicy{}), fc: &l.fc})
	return l
}

// readFrame decodes one frame from r, which holds left more bytes, returning
// its payload and encoded length; n == 0 at a clean end of file or a torn or
// corrupt frame. A length word promising more than left is torn, found before
// its buffer is allocated.
func readFrame(r io.Reader, left int64) (payload []byte, n int) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, 0
	}
	size := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if size < 1 || size > maxFrameLen || int64(size)+8 > left {
		return nil, 0
	}
	buf := make([]byte, size+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0
	}
	payload = buf[:size]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[size:]) {
		return nil, 0
	}
	return payload, 4 + size + 4
}

// encodeFrame renders one frame: u32 len | payload | u32 crc.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, 0, 4+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// Append writes one frame. Like SystemCache.Put it degrades instead of
// failing: a disk failure (after retries) or an open breaker counts the frame
// as unpersisted and returns nil — the caller's in-memory state is already
// authoritative, and refusing to proceed because the journal disk is sick
// would turn a durability loss into an availability loss. Only an empty
// payload, an oversized payload or a closed log return an error.
func (l *RecordLog) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameLen {
		return fmt.Errorf("%w: frame payload of %d bytes (want 1..%d)", ErrStore, len(payload), maxFrameLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: record log is closed", ErrStore)
	}
	_ = l.log.append(encodeFrame(payload)) // failures are counted, not returned
	return nil
}

// Sync flushes appended frames to stable storage.
func (l *RecordLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.sync()
}

// Close syncs and closes the log file; Append fails afterwards.
func (l *RecordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return l.log.close()
}

// RecordLogStats is one log's durability snapshot.
type RecordLogStats struct {
	// Replayed is how many frames the open replayed; Recovered how many torn
	// or corrupt bytes it truncated.
	Replayed  int
	Recovered int64
	// Appended counts frames this handle persisted; Retries, Failures and
	// Unpersisted mirror the store's fault counters for this log.
	Appended    int64
	Retries     int64
	Failures    int64
	Unpersisted int64
	// MemOnly reports the log is running degraded: appends are accepted but
	// nothing reaches disk.
	MemOnly bool
	// Breaker is the log's own circuit-breaker state.
	Breaker BreakerState
}

// Stats returns the log's durability counters.
func (l *RecordLog) Stats() RecordLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return RecordLogStats{
		Replayed:    l.replayed,
		Recovered:   l.log.recovered,
		Appended:    l.log.appended,
		Retries:     l.fc.retries.Load(),
		Failures:    l.fc.failures.Load(),
		Unpersisted: l.fc.unpersisted.Load(),
		MemOnly:     l.log.memOnly,
		Breaker:     l.log.brk.State(),
	}
}
