package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAppendDoesNotRetainRecord holds both backends to the Append buffer
// contract: the caller may scribble over rec as soon as Append returns.
func TestAppendDoesNotRetainRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Journal
	}{
		{"memory", func(*testing.T) Journal { return &Memory{} }},
		{"filelog", func(t *testing.T) Journal { return openTestLog(t, t.TempDir(), Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := tc.open(t)
			want := [][]byte{[]byte("first record"), []byte("second, longer record"), []byte("3")}
			scratch := make([]byte, 0, 64)
			for _, rec := range want {
				scratch = append(scratch[:0], rec...)
				if err := j.Append(scratch); err != nil {
					t.Fatal(err)
				}
				for i := range scratch {
					scratch[i] = 0xAA
				}
			}
			got := collect(t, j)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// gatedFile stands in for the active segment: every Write announces
// itself on entered and then waits for open to be called, so a test can
// hold the syncer's write in flight; writeErr and syncErr inject
// failures.
type gatedFile struct {
	segmentFile
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
	writeErr error
	syncErr  error
}

// gate puts a gatedFile in front of f's active segment. The gate opens
// when the test ends at the latest, so a failed test still closes f.
func gate(t *testing.T, f *FileLog) *gatedFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := &gatedFile{segmentFile: f.active, entered: make(chan struct{}, 1), release: make(chan struct{})}
	f.active = g
	t.Cleanup(g.open)
	return g
}

func (g *gatedFile) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedFile) Write(p []byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	if g.writeErr != nil {
		return 0, g.writeErr
	}
	return g.segmentFile.Write(p)
}

func (g *gatedFile) Sync() error {
	if g.syncErr != nil {
		return g.syncErr
	}
	return g.segmentFile.Sync()
}

// checkOrder asserts recs holds every writer's records exactly once, in
// the order that writer appended them. Records are "<writer>-<n>"; want
// maps a writer to how many it appended.
func checkOrder(t *testing.T, recs [][]byte, want map[string]int) {
	t.Helper()
	next := make(map[string]int)
	for _, rec := range recs {
		var n int
		writer, num, ok := bytes.Cut(rec, []byte("-"))
		if _, err := fmt.Sscanf(string(num), "%d", &n); !ok || err != nil {
			t.Fatalf("unexpected record %q", rec)
		}
		if n != next[string(writer)] {
			t.Fatalf("writer %s: record %d replayed where %d was due (lost, repeated or reordered)", writer, n, next[string(writer)])
		}
		next[string(writer)]++
	}
	for writer, n := range want {
		if next[writer] != n {
			t.Errorf("writer %s: %d records replayed, %d appended", writer, next[writer], n)
		}
	}
}

// TestFileLogGroupCommitInterleavings lands each operation that touches
// the active segment while the syncer's write is in flight and appenders
// keep appending. The operation must wait for that write — it is still
// running after the appenders have finished — and the log must replay
// every acknowledged record once, each writer's in its append order,
// the records of the in-flight group first.
func TestFileLogGroupCommitInterleavings(t *testing.T) {
	const appenders, perAppender, before = 2, 200, 5
	for _, tc := range []struct {
		name         string
		segmentBytes int64
		op           func(f *FileLog) error
	}{
		{"sync", 0, (*FileLog).Sync},
		{"replay", 0, func(f *FileLog) error {
			seen := 0
			err := f.Replay(func([]byte) error { seen++; return nil })
			if err == nil && seen < before {
				err = fmt.Errorf("replay saw %d records, %d were appended before it began", seen, before)
			}
			return err
		}},
		// The appenders cross SegmentBytes too; op's record fills a
		// segment by itself, so it is certain to wait.
		{"rotation", 1024, func(f *FileLog) error { return f.Append([]byte("op-0" + strings.Repeat(" ", 1024))) }},
		{"compact", 0, func(f *FileLog) error { return f.Compact(func([]byte) bool { return true }) }},
		{"close", 0, (*FileLog).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := openTestLog(t, dir, Options{SyncInterval: time.Millisecond, SegmentBytes: tc.segmentBytes})
			g := gate(t, f)
			want := map[string]int{"pre": before}
			for i := 0; i < before; i++ {
				if err := f.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			<-g.entered // the syncer swapped the five out and is writing them

			// Appenders run until they have appended their share or the log
			// closes under them; acked counts what Append acknowledged.
			var wg sync.WaitGroup
			acked := make([]int, appenders)
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < perAppender; i++ {
						if err := f.Append([]byte(fmt.Sprintf("w%d-%d", a, i))); err != nil {
							return
						}
						acked[a]++
					}
				}(a)
			}
			opDone := make(chan error, 1)
			go func() { opDone <- tc.op(f) }()
			if tc.name != "rotation" && tc.name != "close" {
				// Appends neither wait for the write in flight nor for the
				// operation queued behind it. (A full segment and a closed
				// log are the two things an append does wait for.)
				wg.Wait()
			}
			select {
			case err := <-opDone:
				t.Fatalf("%s returned (%v) while the group's write was still in flight", tc.name, err)
			case <-time.After(20 * time.Millisecond):
			}
			g.open()
			if err := <-opDone; err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			wg.Wait()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Append([]byte("late-0")); err == nil {
				t.Error("append after Close succeeded")
			}
			for a, n := range acked {
				if tc.name != "close" && n != perAppender {
					t.Errorf("appender %d: %d of %d appends acknowledged", a, n, perAppender)
				}
				want[fmt.Sprintf("w%d", a)] = n
			}
			if tc.name == "rotation" {
				want["op"] = 1
			}

			reopened := openTestLog(t, dir, Options{})
			recs := collect(t, reopened)
			checkOrder(t, recs, want)
			for i := 0; i < before && i < len(recs); i++ {
				if got := string(recs[i]); got != fmt.Sprintf("pre-%d", i) {
					t.Fatalf("record %d is %q: the in-flight group did not reach the file first", i, got)
				}
			}
			if tc.name == "rotation" {
				// ~5.5 KB of frames over 1 KiB segments: a rotation per
				// kilobyte, not one per appender that saw the segment full.
				if segs := f.Stats().Segments; segs < 5 || segs > 9 {
					t.Errorf("%d segments, want 5 to 9", segs)
				}
			}
		})
	}
}

// TestFileLogBackgroundFailureIsSticky: a group whose write or fsync
// fails in the background poisons the log — the next Append, and Sync
// and Close, return that error, and nothing is written after the fault.
func TestFileLogBackgroundFailureIsSticky(t *testing.T) {
	injected := errors.New("injected disk fault")
	for _, tc := range []struct {
		name string
		set  func(g *gatedFile)
	}{
		{"write", func(g *gatedFile) { g.writeErr = injected }},
		{"sync", func(g *gatedFile) { g.syncErr = injected }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := openTestLog(t, t.TempDir(), Options{SyncInterval: time.Millisecond})
			g := gate(t, f)
			tc.set(g)
			if err := f.Append([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			<-g.entered
			// Appended behind the failing group: acknowledged now, never
			// written, which the sticky error is there to report.
			if err := f.Append([]byte("behind")); err != nil {
				t.Fatal(err)
			}
			g.open()
			deadline := time.Now().Add(5 * time.Second)
			var err error
			for err == nil {
				if time.Now().After(deadline) {
					t.Fatal("appends never saw the background failure")
				}
				err = f.Append([]byte("next"))
			}
			if !errors.Is(err, injected) {
				t.Fatalf("Append = %v, want the injected fault", err)
			}
			if err := f.Append([]byte("again")); !errors.Is(err, injected) {
				t.Errorf("second Append = %v: the error is not sticky", err)
			}
			if err := f.Sync(); !errors.Is(err, injected) {
				t.Errorf("Sync = %v, want the injected fault", err)
			}
			if err := f.Close(); !errors.Is(err, injected) {
				t.Errorf("Close = %v, want the injected fault", err)
			}
		})
	}
}

// TestFileLogPendingBound: with the syncer out of the picture, the
// append that brings the pending buffer to maxPendingBytes writes it to
// the segment itself.
func TestFileLogPendingBound(t *testing.T) {
	dir := t.TempDir()
	f := openTestLog(t, dir, Options{SyncInterval: time.Hour})
	rec := bytes.Repeat([]byte("x"), 300<<10)
	onDisk := func() int64 {
		info, err := os.Stat(f.segmentPath(1))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	for i := 0; i < 3; i++ {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := onDisk(); n != 0 {
		t.Fatalf("%d bytes on disk with 900 KiB pending, want none before the bound", n)
	}
	if err := f.Append(rec); err != nil {
		t.Fatal(err)
	}
	if n, want := onDisk(), int64(4*(frameHeaderSize+len(rec))); n != want {
		t.Fatalf("%d bytes on disk after crossing the bound, want all four frames (%d)", n, want)
	}
	if st := f.Stats(); st.Syncs != 0 {
		t.Errorf("the bound's flush fsynced (%d syncs); it only writes", st.Syncs)
	}
	if got := collect(t, f); len(got) != 4 {
		t.Errorf("replayed %d records, want 4", len(got))
	}
}
