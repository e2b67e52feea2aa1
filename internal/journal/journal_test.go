package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// collect replays a journal into a slice.
func collect(t *testing.T, j Journal) [][]byte {
	t.Helper()
	var out [][]byte
	if err := j.Replay(func(rec []byte) error {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func testRoundTrip(t *testing.T, j Journal) {
	t.Helper()
	recs := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte("x"), 10_000)}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	got := collect(t, j)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
	if err := j.Append([]byte{}); err == nil {
		t.Error("empty record should be rejected")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := &Memory{}
	testRoundTrip(t, m)
	st := m.Stats()
	if st.Records != 3 {
		t.Errorf("stats records = %d, want 3", st.Records)
	}
}

func TestMemorySnapshotIsIndependent(t *testing.T) {
	m := &Memory{}
	if err := m.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if n := len(collect(t, snap)); n != 1 {
		t.Errorf("snapshot has %d records, want 1", n)
	}
	if n := len(collect(t, m)); n != 2 {
		t.Errorf("original has %d records, want 2", n)
	}
}

func TestMemoryClosedAppendFails(t *testing.T) {
	m := &Memory{}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]byte("x")); err == nil {
		t.Error("append after close should fail")
	}
}

func openTestLog(t *testing.T, dir string, opts Options) *FileLog {
	t.Helper()
	f, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

func TestFileLogRoundTrip(t *testing.T) {
	testRoundTrip(t, openTestLog(t, t.TempDir(), Options{}))
}

func TestFileLogReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := f.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := openTestLog(t, dir, Options{})
	if err := f2.Append([]byte("rec-5")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, f2)
	if len(got) != 6 {
		t.Fatalf("replayed %d records after reopen, want 6", len(got))
	}
	for i, rec := range got {
		if want := fmt.Sprintf("rec-%d", i); string(rec) != want {
			t.Errorf("record %d = %q, want %q", i, rec, want)
		}
	}
	if st := f2.Stats(); st.Records != 6 {
		t.Errorf("stats records = %d, want 6", st.Records)
	}
}

func TestFileLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if err := f.Append(bytes.Repeat([]byte{byte('a' + i)}, 30)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Segments < 5 {
		t.Errorf("segments = %d, want several after rotation", st.Segments)
	}
	if got := collect(t, f); len(got) != 20 {
		t.Errorf("replayed %d records across segments, want 20", len(got))
	}
}

func TestFileLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := f.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a frame header promising more bytes
	// than exist.
	segs, err := (&FileLog{dir: dir}).segments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1].path
	var torn [8]byte
	binary.LittleEndian.PutUint32(torn[0:4], 100) // promises 100 payload bytes
	file, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	file.Close()

	f2 := openTestLog(t, dir, Options{})
	got := collect(t, f2)
	if len(got) != 3 {
		t.Fatalf("replayed %d records with torn tail, want 3", len(got))
	}
	if st := f2.Stats(); st.Truncations == 0 {
		t.Error("truncation not counted")
	}
	// New appends continue in a fresh segment past the torn one.
	if err := f2.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, f2); len(got) != 4 || string(got[3]) != "after-crash" {
		t.Errorf("post-crash append not replayed: %d records", len(got))
	}
}

func TestFileLogCorruptPayloadTruncates(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{})
	if err := f.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := (&FileLog{dir: dir}).segments()
	path := segs[0].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	f2 := openTestLog(t, dir, Options{})
	got := collect(t, f2)
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("replayed %v, want just %q", got, "first")
	}
}

func TestFileLogCompact(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := f.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Keep even records only.
	err := f.Compact(func(rec []byte) bool {
		var n int
		fmt.Sscanf(string(rec), "rec-%d", &n)
		return n%2 == 0
	})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	got := collect(t, f)
	if len(got) != 5 {
		t.Fatalf("replayed %d records after compaction, want 5", len(got))
	}
	for i, rec := range got {
		if want := fmt.Sprintf("rec-%d", 2*i); string(rec) != want {
			t.Errorf("record %d = %q, want %q", i, rec, want)
		}
	}
	// Appends continue after compaction and survive reopen.
	if err := f.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openTestLog(t, dir, Options{})
	if got := collect(t, f2); len(got) != 6 || string(got[5]) != "post-compact" {
		t.Fatalf("after reopen: %d records", len(got))
	}
}

// writeTestFile writes recs with WriteFile.
func writeTestFile(path string, recs ...string) error {
	return WriteFile(path, func(emit func(rec []byte) error) error {
		for _, rec := range recs {
			if err := emit([]byte(rec)); err != nil {
				return err
			}
		}
		return nil
	})
}

// readTestFile reads a file with ReadFile.
func readTestFile(path string) ([]string, error) {
	var got []string
	err := ReadFile(path, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	return got, err
}

// TestWriteFileReplacesWhole: WriteFile writes the records it is given
// over the old file and ReadFile reads them back; a producer that fails
// part way — after emitting — leaves the old file byte for byte and no
// temp file behind, and so does a record the framing cannot hold. A file
// that is not there is fs.ErrNotExist.
func TestWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	if _, err := readTestFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("reading a missing file: %v, want fs.ErrNotExist", err)
	}
	if err := writeTestFile(path, "old", "older"); err != nil {
		t.Fatal(err)
	}
	if err := writeTestFile(path, "one", "two", strings.Repeat("x", 10_000)); err != nil {
		t.Fatal(err)
	}
	if got, err := readTestFile(path); err != nil || len(got) != 3 || got[0] != "one" || got[1] != "two" || len(got[2]) != 10_000 {
		t.Fatalf("read back %d records, %v", len(got), err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	failed := errors.New("producer failed")
	for name, records := range map[string]func(emit func([]byte) error) error{
		"producer error": func(emit func([]byte) error) error {
			if err := emit([]byte("new")); err != nil {
				return err
			}
			return failed
		},
		"empty record":     func(emit func([]byte) error) error { return emit(nil) },
		"oversized record": func(emit func([]byte) error) error { return emit(make([]byte, MaxRecord+1)) },
	} {
		if err := WriteFile(path, records); err == nil {
			t.Errorf("%s: WriteFile succeeded", name)
		} else if name == "producer error" && !errors.Is(err, failed) {
			t.Errorf("%s: WriteFile returned %v, not the producer's error", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the old file changed (%v)", name, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Errorf("%s: the directory holds %v (%v), want the file alone", name, entries, err)
		}
	}
}

// TestReadFileRejectsAnyFlippedByte: a file WriteFile wrote whole has no
// crash-shaped tail, so one flipped byte anywhere — header or payload, of
// any record — is an error, where Replay of the same bytes as a segment
// truncates and reports the records before it.
func TestReadFileRejectsAnyFlippedByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	if err := writeTestFile(path, "first", "second record", "third"); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(dir, "log")
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := readTestFile(path); err == nil {
			t.Fatalf("byte %d flipped: ReadFile read %q without an error", i, got)
		}
		// The same bytes as a journal segment: Replay truncates instead.
		os.RemoveAll(segDir)
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, "00000001.wal"), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		f := openTestLog(t, segDir, Options{})
		if got := collect(t, f); len(got) >= 3 {
			t.Fatalf("byte %d flipped: Replay returned all %d records", i, len(got))
		}
		f.Close()
	}
}

func TestFileLogSyncEveryAppend(t *testing.T) {
	f := openTestLog(t, t.TempDir(), Options{SyncInterval: -1})
	if err := f.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Syncs == 0 {
		t.Error("no sync recorded with SyncInterval<0")
	}
}

func TestFileLogBatchedSyncEventuallyFsyncs(t *testing.T) {
	f := openTestLog(t, t.TempDir(), Options{SyncInterval: time.Millisecond})
	if err := f.Append([]byte("batched")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if f.Stats().Syncs > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background syncer never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFileLogAppendDuringReplay(t *testing.T) {
	// The recovery pattern: the replay callback appends to the same
	// journal. Must not deadlock, and the appended records are not part
	// of the replay.
	f := openTestLog(t, t.TempDir(), Options{})
	for i := 0; i < 3; i++ {
		if err := f.Append([]byte(fmt.Sprintf("seed-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	err := f.Replay(func(rec []byte) error {
		seen++
		return f.Append(append([]byte("echo-"), rec...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("replayed %d records, want 3 (echoes excluded)", seen)
	}
	if got := collect(t, f); len(got) != 6 {
		t.Errorf("total records = %d, want 6", len(got))
	}
}

func TestFileLogIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := openTestLog(t, dir, Options{})
	if err := f.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, f); len(got) != 1 {
		t.Errorf("replayed %d records, want 1", len(got))
	}
}

// TestFileLogDropsCutShortCompaction: Compact writes the next segment
// through WriteFile, whose temp file a crash can leave behind. Opening
// the log removes it unread: the segments it would have replaced are all
// still there.
func TestFileLogDropsCutShortCompaction(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{})
	if err := f.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "00000009.wal.tmp")
	if err := writeTestFile(filepath.Join(dir, "unused"), "kept"); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "unused"), tmp); err != nil {
		t.Fatal(err)
	}
	f2 := openTestLog(t, dir, Options{})
	if got := collect(t, f2); len(got) != 1 || string(got[0]) != "kept" {
		t.Errorf("replayed %q, want the one record", got)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the cut-short compaction file is still there (%v)", err)
	}
}

func TestFileLogClosedAppendFails(t *testing.T) {
	f, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	if err := f.Append([]byte("x")); err == nil {
		t.Error("append after close should fail")
	}
}

func TestFileLogOversizedRecordRejected(t *testing.T) {
	f := openTestLog(t, t.TempDir(), Options{})
	if err := f.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversized record should be rejected")
	}
}

func TestFileLogLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a live journal directory should fail")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the lock is released and the directory reopens.
	f2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	f2.Close()
}

func TestFileLogStatsCountsPreexistingAfterReplay(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := f.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openTestLog(t, dir, Options{})
	if err := f2.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	// Open no longer scans contents: only this process's appends count
	// until the first replay tallies the rest.
	if st := f2.Stats(); st.Records != 1 {
		t.Errorf("records before replay = %d, want 1", st.Records)
	}
	if err := f2.Replay(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := f2.Stats(); st.Records != 5 {
		t.Errorf("records after replay = %d, want 5", st.Records)
	}
}
