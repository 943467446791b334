package oraclestore

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

var testLogTag = sha256.Sum256([]byte("recordlog-test-v1"))

func openTestLog(t *testing.T, path string, opts RecordLogOptions) (*RecordLog, [][]byte) {
	t.Helper()
	var frames [][]byte
	l, err := OpenRecordLog(path, testLogTag, opts, func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenRecordLog: %v", err)
	}
	return l, frames
}

func TestRecordLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs", "test.wal")
	l, frames := openTestLog(t, path, RecordLogOptions{})
	if len(frames) != 0 {
		t.Fatalf("fresh log replayed %d frames", len(frames))
	}
	want := [][]byte{[]byte("one"), []byte(`{"id":"two"}`), make([]byte, 4096)}
	for i := range want[2] {
		want[2][i] = byte(i)
	}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Appended != int64(len(want)) || st.MemOnly {
		t.Fatalf("stats after append: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, frames := openTestLog(t, path, RecordLogOptions{})
	defer l2.Close()
	if len(frames) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(frames), len(want))
	}
	for i, p := range want {
		if string(frames[i]) != string(p) {
			t.Fatalf("frame %d mismatch: got %q want %q", i, frames[i], p)
		}
	}
	if st := l2.Stats(); st.Replayed != len(want) || st.Recovered != 0 {
		t.Fatalf("reopen stats: %+v", st)
	}
}

func TestRecordLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path, RecordLogOptions{})
	if err := l.Append([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage (a plausible length word followed
	// by a short body) lands after the last complete frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, frames := openTestLog(t, path, RecordLogOptions{})
	if len(frames) != 2 || string(frames[0]) != "alpha" || string(frames[1]) != "beta" {
		t.Fatalf("replay after torn tail: %q", frames)
	}
	if st := l2.Stats(); st.Recovered != 6 {
		t.Fatalf("recovered %d bytes, want 6", st.Recovered)
	}
	// Appends resume cleanly after the heal.
	if err := l2.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, frames := openTestLog(t, path, RecordLogOptions{})
	defer l3.Close()
	if len(frames) != 3 || string(frames[2]) != "gamma" {
		t.Fatalf("replay after heal+append: %q", frames)
	}
}

func TestRecordLogWrongTagResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	other := sha256.Sum256([]byte("some-other-schema"))
	l, err := OpenRecordLog(path, other, RecordLogOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("foreign")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, frames := openTestLog(t, path, RecordLogOptions{})
	defer l2.Close()
	if len(frames) != 0 {
		t.Fatalf("replayed %d foreign frames, want 0", len(frames))
	}
	if st := l2.Stats(); st.Recovered == 0 {
		t.Fatalf("wrong-tag open should count recovered bytes: %+v", st)
	}
}

func TestMemRecordLog(t *testing.T) {
	l := NewMemRecordLog()
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if !st.MemOnly || st.Unpersisted != 1 || st.Appended != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("y")); err == nil {
		t.Fatal("Append on closed log should error")
	}
}
