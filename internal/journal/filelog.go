package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Record framing: every record is written as an 8-byte header followed
// by the payload.
//
//	offset  size  field
//	0       4     payload length, little endian
//	4       4     CRC-32C (Castagnoli) of the payload
//	8       n     payload
//
// A record is valid only when its length is in (0, MaxRecord] and the
// payload checksum matches. Anything else — a short header, a short
// payload, a zero or oversized length, a checksum mismatch — marks the
// point where a crash tore an in-flight append; the segment is
// truncated there on replay and the remainder ignored.
const (
	frameHeaderSize = 8
	// MaxRecord bounds a single record's payload. The bound keeps a
	// corrupted length field from turning replay into a multi-gigabyte
	// allocation.
	MaxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes a FileLog.
type Options struct {
	// SegmentBytes is the size at which the active segment is sealed
	// and a new one started (default 4 MiB).
	SegmentBytes int64
	// SyncInterval is the fsync batching window: appends frame into a
	// memory buffer and a background syncer writes and fsyncs it at this
	// cadence, so one write and one fsync amortize over every append in
	// the window. Zero defaults to 2ms. Negative syncs on every append
	// (durable but slow: each append pays a full fsync).
	SyncInterval time.Duration
}

const (
	defaultSegmentBytes = 4 << 20
	defaultSyncInterval = 2 * time.Millisecond
	segmentSuffix       = ".wal"
	// maxPendingBytes bounds the frames held in memory: an append that
	// finds this much pending writes it out itself, behind the write in
	// flight, so a syncer that has fallen behind (a slow disk) slows the
	// appenders down instead of growing the buffer. A sync window's
	// appends are far below it (a 1 000-record evaluation tick is
	// ~150 KB). It is a constant because it trades nothing a deployment
	// could want differently: the loss window is set by SyncInterval.
	maxPendingBytes = 1 << 20
)

// segmentFile is what FileLog needs of its active segment; an *os.File
// outside tests.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FileLog is a durable Journal: an append-only log segmented across
// numbered files in one directory. Records are CRC-framed, fsyncs are
// batched (Options.SyncInterval), segments rotate at a size threshold,
// and Compact rewrites the log keeping only records a filter retains.
//
// The batching is a group commit over two buffers. Append frames its
// record into pending under mu and returns. The syncer swaps pending
// for the spare buffer under mu, then writes and fsyncs the swapped-out
// one outside it, so an append never waits for the disk. Everything
// else that touches the active segment (Sync, Close, Replay's flush,
// rotation, Compact, a SyncInterval < 0 append, an append that finds
// maxPendingBytes pending) first waits for that write (awaitWriter) and
// then writes pending itself under mu: the file only ever receives
// frames in append order.
//
// Opening a directory always starts a fresh active segment, so a tail
// torn by a crash is never appended after; replay drops the torn tail
// and the log continues in the next segment.
type FileLog struct {
	dir  string
	opts Options

	// lock holds an exclusive flock on the directory's lock file for
	// the journal's lifetime, so two processes cannot interleave
	// segments on the same --data-dir.
	lock *os.File

	mu      sync.Mutex
	active  segmentFile
	pending []byte // frames appended since the last write, in append order
	spare   []byte // the buffer pending is swapped for; nil while it is being written
	// writing is set while the syncer writes a swapped-out buffer outside
	// mu; idle is signalled when it clears.
	writing  bool
	idle     *sync.Cond
	unsynced bool  // the active segment holds written bytes no fsync has covered
	size     int64 // bytes appended to the active segment, pending included
	seq      uint64
	closed   bool
	lastErr  error // sticky failure of a segment write or a background fsync

	appended    uint64 // records appended by this process
	preexisting uint64 // records found on disk, counted by the first Replay
	counted     bool
	bytes       uint64
	segCount    int
	syncs       uint64
	truncations uint64

	stop chan struct{}
	done chan struct{}
}

var _ Journal = (*FileLog)(nil)

// Open creates or opens a file journal in dir (created if missing).
// Existing segments are preserved and replayed in order; new appends go
// to a fresh segment.
func Open(dir string, opts Options) (*FileLog, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	f := &FileLog{
		dir:  dir,
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.idle = sync.NewCond(&f.mu)
	// Exclusive directory lock: a second daemon pointed at the same
	// --data-dir must fail fast instead of interleaving segments with a
	// live writer. flock is released automatically if the process dies,
	// so a kill -9 never wedges the next boot.
	lock, err := os.OpenFile(filepath.Join(dir, "journal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("journal: %s is in use by another process: %w", dir, err)
	}
	f.lock = lock

	segs, err := f.segments()
	if err != nil {
		lock.Close()
		return nil, err
	}
	for _, seg := range segs {
		info, err := os.Stat(seg.path)
		if err != nil {
			lock.Close()
			return nil, fmt.Errorf("journal: stat %s: %w", seg.path, err)
		}
		f.bytes += uint64(info.Size())
		if seg.seq >= f.seq {
			f.seq = seg.seq
		}
	}
	f.segCount = len(segs)
	if err := f.openSegment(f.seq + 1); err != nil {
		lock.Close()
		return nil, err
	}
	if f.opts.SyncInterval > 0 {
		go f.syncLoop()
	} else {
		close(f.done)
	}
	return f, nil
}

type segment struct {
	seq  uint64
	path string
}

// segments lists the on-disk segment files in sequence order.
func (f *FileLog) segments() ([]segment, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", f.dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, segmentSuffix+".tmp") { // a compaction a crash cut short
			os.Remove(filepath.Join(f.dir, name))
		}
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue // not a segment file
		}
		segs = append(segs, segment{seq: seq, path: filepath.Join(f.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

func (f *FileLog) segmentPath(seq uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("%08d%s", seq, segmentSuffix))
}

// openSegment seals the current active segment (if any) and starts a
// new one. Caller holds f.mu with no write in flight (or is
// constructing the log).
func (f *FileLog) openSegment(seq uint64) error {
	if f.active != nil {
		if err := f.syncLocked(); err != nil {
			return err
		}
		if err := f.active.Close(); err != nil {
			return err
		}
	}
	file, err := os.OpenFile(f.segmentPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening segment: %w", err)
	}
	// Fsync the directory so the new segment's entry survives a crash:
	// without it, records reported durable could vanish with the file.
	if err := syncDir(f.dir); err != nil {
		file.Close()
		return err
	}
	f.active = file
	f.size = 0
	f.seq = seq
	f.segCount++
	return nil
}

// syncDir fsyncs a directory so entry mutations (segment creation,
// compaction renames and removals) reach stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// frameHeader is the header of rec's frame.
func frameHeader(rec []byte) (h [frameHeaderSize]byte) {
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(rec, castagnoli))
	return h
}

// Append implements Journal. It copies rec into the pending buffer; the
// file is touched only on the slow path (settleLocked).
func (f *FileLog) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if len(rec) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(rec), MaxRecord)
	}
	header := frameHeader(rec)

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("journal: appending to closed journal")
	}
	if f.lastErr != nil {
		return f.lastErr
	}
	f.pending = append(append(f.pending, header[:]...), rec...)
	n := int64(frameHeaderSize + len(rec))
	f.size += n
	f.bytes += uint64(n)
	f.appended++
	if f.opts.SyncInterval < 0 || len(f.pending) >= maxPendingBytes || f.size >= f.opts.SegmentBytes {
		return f.settleLocked()
	}
	return nil
}

// settleLocked is Append's slow path: the append must reach the file
// before it returns — to be fsynced (SyncInterval < 0), to bound the
// pending buffer, or because the segment is full. Caller holds f.mu.
func (f *FileLog) settleLocked() error {
	// The wait releases f.mu, so another appender, or Close, may do this
	// append's work first: every condition is read after it.
	f.awaitWriter()
	switch {
	case f.closed || f.lastErr != nil:
		// A Close that got in first wrote pending, this record included;
		// lastErr says whether a write failed on the way.
		return f.lastErr
	case f.size >= f.opts.SegmentBytes:
		return f.openSegment(f.seq + 1) // sealing fsyncs
	case f.opts.SyncInterval < 0:
		return f.syncLocked()
	case len(f.pending) >= maxPendingBytes:
		return f.writePending()
	}
	return nil
}

// awaitWriter returns once no swapped-out buffer is being written:
// everything appended before the swap is in the file, everything after
// is in pending. Caller holds f.mu, which the wait releases.
func (f *FileLog) awaitWriter() {
	for f.writing {
		f.idle.Wait()
	}
}

// writePending writes the pending frames to the active segment without
// fsyncing. A failed write is sticky: it may have left a partial frame,
// after which nothing may be appended to the segment. Caller holds f.mu
// with no write in flight.
func (f *FileLog) writePending() error {
	if f.lastErr != nil {
		return f.lastErr
	}
	if len(f.pending) == 0 {
		return nil
	}
	_, err := f.active.Write(f.pending)
	f.pending = f.pending[:0]
	if err != nil {
		f.lastErr = err
		return err
	}
	f.unsynced = true
	return nil
}

// syncLoop is the background group commit: at every tick it takes what
// was appended since the last one and makes it durable without holding
// f.mu across the write or the fsync.
func (f *FileLog) syncLoop() {
	defer close(f.done)
	ticker := time.NewTicker(f.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.mu.Lock()
			if f.closed || f.lastErr != nil || (len(f.pending) == 0 && !f.unsynced) {
				f.mu.Unlock()
				continue
			}
			buf, file := f.pending, f.active
			f.pending, f.spare = f.spare[:0], nil
			f.writing, f.unsynced = true, false
			f.mu.Unlock()

			var err error
			if len(buf) > 0 {
				_, err = file.Write(buf)
			}
			if err == nil {
				err = file.Sync()
			}

			f.mu.Lock()
			f.spare, f.writing = buf[:0], false
			if err != nil {
				f.lastErr = err
			} else {
				f.syncs++
			}
			f.idle.Broadcast()
			f.mu.Unlock()
		}
	}
}

// syncLocked writes the pending frames and fsyncs the active segment.
// Caller holds f.mu with no write in flight.
func (f *FileLog) syncLocked() error {
	if err := f.writePending(); err != nil {
		return err
	}
	if err := f.active.Sync(); err != nil {
		return err
	}
	f.unsynced = false
	f.syncs++
	return nil
}

// Sync implements Journal.
func (f *FileLog) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.awaitWriter()
	if f.closed {
		return nil
	}
	return f.syncLocked()
}

// Close implements Journal: it flushes and seals the active segment and
// stops the syncer.
func (f *FileLog) Close() error {
	f.mu.Lock()
	f.awaitWriter()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	err := f.syncLocked()
	f.closed = true
	closeErr := f.active.Close()
	lockErr := f.lock.Close() // releases the flock
	f.mu.Unlock()
	close(f.stop)
	<-f.done
	if err == nil {
		err = closeErr
	}
	if err == nil {
		err = lockErr
	}
	return err
}

// Replay implements Journal. The boundary (segment list and active
// segment size) is captured under the lock, then the files are read
// outside it, so the callback may Append to this same journal — the
// write-ahead recovery pattern — without deadlocking; those appends are
// not part of the replay.
//
// A torn record (short frame, bad length, checksum mismatch) truncates
// its segment at that point: the rest of the segment is skipped and
// replay continues with the next segment. This is the crash shape —
// each process generation appends to its own segment, so a tear only
// ever hides records that were being written when that generation died.
func (f *FileLog) Replay(fn func(rec []byte) error) error {
	f.mu.Lock()
	f.awaitWriter()
	if err := f.writePending(); err != nil {
		f.mu.Unlock()
		return err
	}
	segs, err := f.segments()
	if err != nil {
		f.mu.Unlock()
		return err
	}
	activeSeq, activeSize := f.seq, f.size
	appendedAtBoundary := f.appended
	f.mu.Unlock()

	var replayed uint64
	for _, seg := range segs {
		if seg.seq > activeSeq {
			continue // created after the boundary
		}
		limit := int64(-1)
		if seg.seq == activeSeq {
			limit = activeSize
		}
		truncated, err := replaySegment(seg.path, limit, func(rec []byte) error {
			replayed++
			return fn(rec)
		})
		if err != nil {
			return err
		}
		if truncated {
			f.mu.Lock()
			f.truncations++
			f.mu.Unlock()
		}
	}
	// A completed replay saw every record up to the boundary —
	// preexisting ones plus this process's appends. That settles the
	// preexisting count without Open having to scan the log twice (the
	// daemon replays at boot anyway, for recovery).
	f.mu.Lock()
	if !f.counted {
		f.preexisting = replayed - appendedAtBoundary
		f.counted = true
	}
	f.mu.Unlock()
	return nil
}

// replaySegment reads one segment, calling fn per valid record. limit
// caps the bytes read (-1 = whole file). The bool result reports
// whether a torn tail was dropped.
func replaySegment(path string, limit int64, fn func(rec []byte) error) (bool, error) {
	file, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	defer file.Close()
	var src io.Reader = file
	if limit >= 0 {
		src = io.LimitReader(file, limit)
	}
	r := bufio.NewReader(src)
	var header [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return false, nil // clean end of segment
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return true, nil // torn header
			}
			return false, err
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length == 0 || length > MaxRecord {
			return true, nil // corrupt length: torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return true, nil // torn payload
			}
			return false, err
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(header[4:8]) {
			return true, nil // corrupt payload: torn tail
		}
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}

// Compact rewrites the journal keeping only the records keep returns
// true for: the retention hook callers use to drop events of runs that
// no longer need replaying. The kept records land in one fresh segment
// (WriteFile, before the old segments are removed), and appends continue
// in a new active segment after it. keep must not touch the journal.
func (f *FileLog) Compact(keep func(rec []byte) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.awaitWriter()
	if f.closed {
		return errors.New("journal: compacting closed journal")
	}
	if err := f.writePending(); err != nil {
		return err
	}
	segs, err := f.segments()
	if err != nil {
		return err
	}

	// The survivors become the next segment, the old ones go, and the
	// directory is fsynced so the swap is crash-durable.
	compactSeq := f.seq + 1
	var kept, keptBytes uint64
	err = WriteFile(f.segmentPath(compactSeq), func(emit func(rec []byte) error) error {
		for _, seg := range segs {
			if _, err := replaySegment(seg.path, -1, func(rec []byte) error {
				if !keep(rec) {
					return nil
				}
				kept++
				keptBytes += uint64(frameHeaderSize + len(rec))
				return emit(rec)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := f.active.Close(); err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("journal: removing compacted segment: %w", err)
		}
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	f.preexisting = kept
	f.counted = true
	f.appended = 0
	f.bytes = keptBytes
	f.segCount = 1 // the compacted segment; openSegment adds the active one
	f.active = nil // openSegment must not re-seal the closed file
	f.seq = compactSeq
	return f.openSegment(compactSeq + 1)
}

// WriteFile replaces path with the records emit is given, framed as
// Append frames them, so that a crash leaves the old file or the whole
// new one: path+".tmp" is written, flushed, fsynced, closed and renamed
// over path, then the directory is fsynced. On any failure the temp file
// is removed and path is untouched. emit does not retain rec.
func WriteFile(path string, records func(emit func(rec []byte) error) error) error {
	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(file)
	err = records(func(rec []byte) error {
		if len(rec) == 0 || len(rec) > MaxRecord {
			return fmt.Errorf("journal: record of %d bytes outside (0, %d]", len(rec), MaxRecord)
		}
		header := frameHeader(rec)
		w.Write(header[:]) // a bufio.Writer's error is sticky: the next Write returns it
		_, err := w.Write(rec)
		return err
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadFile calls fn for every record of a file WriteFile wrote, in
// order. A file written whole has no crash-shaped tail, so a torn or
// corrupt frame — anywhere — is an error, where Replay would truncate.
func ReadFile(path string, fn func(rec []byte) error) error {
	torn, err := replaySegment(path, -1, fn)
	if err == nil && torn {
		err = fmt.Errorf("journal: %s: torn or corrupt frame", path)
	}
	return err
}

// Stats implements Journal. It reads in-memory counters only — no
// directory I/O under the mutex Append contends on.
func (f *FileLog) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Records:     f.preexisting + f.appended,
		Bytes:       f.bytes,
		Segments:    f.segCount,
		Syncs:       f.syncs,
		Truncations: f.truncations,
	}
}
