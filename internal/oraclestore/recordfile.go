package oraclestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the byte-level half of the remote tier: whole record files
// travel between processes (a local Store and a cmd/thermstore node), so the
// validation and record-union logic the SystemCache loader applies to its own
// file is exported here for anyone holding the raw bytes.

// RecordFileInfo summarises a validated record file.
type RecordFileInfo struct {
	// Key is the content address carried by the header.
	Key [32]byte
	// NumBlocks is the per-record temperature vector length.
	NumBlocks int
	// Records counts the valid records.
	Records int
	// ValidLen is the length of the valid prefix (header plus whole,
	// CRC-checked records). Anything past it is a torn or corrupt tail and
	// must be dropped before the bytes are merged or served.
	ValidLen int64
}

// ValidateRecordFile checks data against the record-file format: magic,
// version, and every record's CRC and canonical core list. A torn tail is not
// an error — it is reported via ValidLen, exactly as the loader would
// truncate it. Only an unusable header fails. The header's block count is
// not trusted: a record longer than the bytes left is a torn tail, found
// before anything of its length is allocated.
func ValidateRecordFile(data []byte) (RecordFileInfo, error) {
	info, err := readHeader(data)
	if err != nil {
		return info, err
	}
	err = walkRecords(data, info.NumBlocks, func(_ record, raw []byte) error {
		info.Records++
		info.ValidLen += int64(len(raw))
		return nil
	})
	return info, err
}

// readHeader checks data's record-file header and returns its info with no
// records counted and ValidLen at the header's end.
func readHeader(data []byte) (RecordFileInfo, error) {
	var info RecordFileInfo
	if len(data) < headerLen {
		return info, fmt.Errorf("%w: record file shorter than its header (%d bytes)", ErrStore, len(data))
	}
	if string(data[:8]) != string(fileMagic[:]) {
		return info, fmt.Errorf("%w: bad record-file magic", ErrStore)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != fileVersion {
		return info, fmt.Errorf("%w: unsupported record-file version %d", ErrStore, v)
	}
	info.NumBlocks = int(binary.LittleEndian.Uint32(data[12:16]))
	if info.NumBlocks < 1 {
		return info, fmt.Errorf("%w: implausible block count %d", ErrStore, info.NumBlocks)
	}
	copy(info.Key[:], data[16:48])
	info.ValidLen = headerLen
	return info, nil
}

// walkRecords calls fn for every valid record of data (a header-checked
// record file), stopping silently at the first invalid one — the torn-tail
// rule, walked by the same reader the loader uses. fn receives the decoded
// record and its raw encoded bytes.
func walkRecords(data []byte, numBlocks int, fn func(rec record, raw []byte) error) error {
	var scratch []byte
	off := headerLen
	_, err := walkFrames(bytes.NewReader(data[headerLen:]), int64(len(data)-headerLen), func(r io.Reader, left int64) (int, error) {
		rec, n := readRecord(r, &scratch, numBlocks, left)
		if n == 0 {
			return 0, nil
		}
		if err := fn(rec, data[off:off+n]); err != nil {
			return 0, err
		}
		off += n
		return n, nil
	})
	return err
}

// MergeRecordFiles unions incoming's records into existing, both whole record
// files for the same system. Existing records keep their order and win
// duplicates; fresh incoming records are appended in their original order, so
// merging is deterministic and idempotent — the record-level half of the
// remote tier's whole-file anti-entropy. A nil existing adopts incoming's
// valid prefix. Torn tails on either side are dropped, never merged. Returns
// the merged file, its record count and how many records incoming
// contributed. Each input is walked once.
func MergeRecordFiles(existing, incoming []byte) (merged []byte, records, added int, err error) {
	if existing == nil {
		in, err := ValidateRecordFile(incoming)
		if err != nil {
			return nil, 0, 0, err
		}
		out := make([]byte, in.ValidLen)
		copy(out, incoming[:in.ValidLen])
		return out, in.Records, in.Records, nil
	}
	in, err := readHeader(incoming)
	if err != nil {
		return nil, 0, 0, err
	}
	ex, err := readHeader(existing)
	if err != nil {
		return nil, 0, 0, err
	}
	if ex.Key != in.Key || ex.NumBlocks != in.NumBlocks {
		return nil, 0, 0, fmt.Errorf("%w: merging record files for different systems", ErrStore)
	}
	seen := make(map[string]struct{})
	_ = walkRecords(existing, ex.NumBlocks, func(rec record, raw []byte) error {
		seen[rec.key] = struct{}{}
		ex.Records++
		ex.ValidLen += int64(len(raw))
		return nil
	})
	out := make([]byte, ex.ValidLen, ex.ValidLen+int64(len(incoming)-headerLen))
	copy(out, existing[:ex.ValidLen])
	_ = walkRecords(incoming, in.NumBlocks, func(rec record, raw []byte) error {
		if _, dup := seen[rec.key]; dup {
			return nil
		}
		seen[rec.key] = struct{}{}
		out = append(out, raw...)
		added++
		return nil
	})
	return out, ex.Records + added, added, nil
}

// AbsorbRecords merges a remote record file's answers into this cache through
// the ordinary Put path, so they are memoized in RAM and re-persisted into
// the local file — the read-through half of the remote tier. Records the
// cache already holds are skipped; a torn tail on the remote bytes is
// dropped. Returns how many records were absorbed. The file must describe
// this cache's system (key and block count), else nothing is absorbed.
func (c *SystemCache) AbsorbRecords(data []byte) (added int, err error) {
	info, err := ValidateRecordFile(data)
	if err != nil {
		return 0, err
	}
	if info.Key != c.key || info.NumBlocks != c.numBlocks {
		return 0, fmt.Errorf("%w: absorbing a record file for a different system", ErrStore)
	}
	werr := walkRecords(data, c.numBlocks, func(rec record, _ []byte) error {
		c.mu.Lock()
		_, have := c.mem[rec.key]
		c.mu.Unlock()
		if have {
			return nil
		}
		active := make([]int, len(rec.key)/4)
		for i := range active {
			active[i] = int(binary.LittleEndian.Uint32([]byte(rec.key[4*i:])))
		}
		if err := c.Put(active, rec.temps); err != nil {
			return err
		}
		added++
		return nil
	})
	return added, werr
}
