package oraclestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedLengthsAllocateNothing: a header or frame length word that
// promises more bytes than the input holds is a torn tail, found before any
// buffer of that length is allocated. The forged record file is 52 bytes — a
// header claiming 10·2²⁰ blocks and one record's active count, then EOF — the
// shape a PUT /records body or a fetched file can take; sizing the record
// buffer from the header would allocate 120 MiB for it.
func TestForgedLengthsAllocateNothing(t *testing.T) {
	forged := make([]byte, 0, headerLen+4)
	forged = append(forged, fileMagic[:]...)
	forged = binary.LittleEndian.AppendUint32(forged, fileVersion)
	forged = binary.LittleEndian.AppendUint32(forged, 10<<20)
	forged = append(forged, make([]byte, 32)...)
	forged = binary.LittleEndian.AppendUint32(forged, 1)

	var info RecordFileInfo
	var err error
	if n := allocBytes(func() { info, err = ValidateRecordFile(forged) }); n >= 1<<20 {
		t.Errorf("ValidateRecordFile on a forged %d-byte file allocated %d bytes", len(forged), n)
	}
	if err != nil || info.Records != 0 || info.ValidLen != headerLen {
		t.Errorf("ValidateRecordFile = %+v, %v; want the header alone valid", info, err)
	}
	if n := allocBytes(func() { _, _, _, err = MergeRecordFiles(forged, forged) }); n >= 1<<20 {
		t.Errorf("MergeRecordFiles on a forged file allocated %d bytes", n)
	}

	// A journal frame whose length word claims 16 MiB − 1 of payload.
	path := filepath.Join(t.TempDir(), "forged.wal")
	l, _ := openTestLog(t, path, RecordLogOptions{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint32(nil, maxFrameLen-1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	if n := allocBytes(func() { l, frames = openTestLog(t, path, RecordLogOptions{}) }); n >= 1<<20 {
		t.Errorf("opening a log with a forged frame length allocated %d bytes", n)
	}
	defer l.Close()
	if len(frames) != 0 || l.Stats().Recovered != 4 {
		t.Errorf("forged frame: replayed %d, stats %+v; want 0 frames, 4 bytes recovered", len(frames), l.Stats())
	}
}

// FuzzRecordFile feeds arbitrary bytes to the record-file trust boundary — a
// PUT /records body, a fetched file — seeded from a real file, its torn
// prefix and a forged header. Nothing may panic, the valid prefix lies inside
// the input, adopting a file keeps exactly its valid records, and merging a
// file into itself adds nothing.
func FuzzRecordFile(f *testing.F) {
	spec := testspec.Alpha21364()
	desc := DescForBlockModel(spec.Floorplan(), thermal.DefaultPackageConfig(), spec.Profile())
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sc, err := st.System(desc)
	if err != nil {
		f.Fatal(err)
	}
	for i, active := range [][]int{{0}, {1, 4}, {2, 3, 14}} {
		if err := sc.Put(active, tempsFor(desc.Floorplan.NumBlocks(), float64(50+i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(sc.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-7])
	f.Add(raw[:headerLen])
	forged := append([]byte(nil), raw[:headerLen+4]...)
	binary.LittleEndian.PutUint32(forged[12:16], 10<<20)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, x []byte) {
		info, err := ValidateRecordFile(x)
		if err != nil {
			return
		}
		if info.ValidLen < headerLen || info.ValidLen > int64(len(x)) {
			t.Fatalf("ValidLen %d outside [%d, %d]", info.ValidLen, headerLen, len(x))
		}
		adopted, records, added, err := MergeRecordFiles(nil, x)
		if err != nil || int64(len(adopted)) != info.ValidLen || records != info.Records || added != info.Records {
			t.Fatalf("MergeRecordFiles(nil, x) = %d bytes, %d records, %d added, %v; want %d bytes, %d records and added",
				len(adopted), records, added, err, info.ValidLen, info.Records)
		}
		merged, records, added, err := MergeRecordFiles(x, x)
		if err != nil || added != 0 || records != info.Records || int64(len(merged)) != info.ValidLen {
			t.Fatalf("self-merge = %d bytes, %d records, %d added, %v; want %d bytes, %d records, 0 added",
				len(merged), records, added, err, info.ValidLen, info.Records)
		}
	})
}

// FuzzRecordLogReplay writes arbitrary bytes where a journal lives and opens
// it, seeded from a real journal, its torn prefix, a foreign tag and a forged
// frame length. The open must not panic, and it leaves a file that a second
// open replays identically with nothing left to recover.
func FuzzRecordLogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, err := OpenRecordLog(path, testLogTag, RecordLogOptions{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"one", `{"id":"two"}`, "three"} {
		if err := l.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	foreign := append([]byte(nil), raw...)
	foreign[20] ^= 0xff
	f.Add(foreign)
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), raw...), maxFrameLen))

	f.Fuzz(func(t *testing.T, x []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, x, 0o644); err != nil {
			t.Fatal(err)
		}
		l1, first := openTestLog(t, path, RecordLogOptions{})
		if err := l1.Close(); err != nil {
			t.Fatal(err)
		}
		l2, second := openTestLog(t, path, RecordLogOptions{})
		defer l2.Close()
		if st := l2.Stats(); st.Recovered != 0 || st.Replayed != len(first) {
			t.Fatalf("second open: %+v after a first open replayed %d frames", st, len(first))
		}
		for i := range first {
			if string(first[i]) != string(second[i]) {
				t.Fatalf("frame %d: %q then %q", i, first[i], second[i])
			}
		}
	})
}
