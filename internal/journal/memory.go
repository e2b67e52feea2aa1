package journal

import (
	"errors"
	"sync"
)

// Memory is an in-process Journal: the zero-durability backend used by
// tests, benchmarks, and daemons running without --data-dir. It keeps
// every record in order and never fails except on misuse.
type Memory struct {
	mu     sync.Mutex
	recs   [][]byte
	bytes  uint64
	closed bool
}

var _ Journal = (*Memory)(nil)

// Append implements Journal. The record is copied.
func (m *Memory) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("journal: appending to closed journal")
	}
	m.recs = append(m.recs, cp)
	m.bytes += uint64(len(cp))
	return nil
}

// Replay implements Journal. The callback may Append to this journal;
// records appended after Replay starts are not part of the replay.
func (m *Memory) Replay(fn func(rec []byte) error) error {
	m.mu.Lock()
	recs := m.recs[:len(m.recs):len(m.recs)]
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements Journal (a no-op: memory has no stable storage).
func (m *Memory) Sync() error { return nil }

// Compact implements Journal.
func (m *Memory) Compact(keep func(rec []byte) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.recs[:0:0]
	var bytes uint64
	for _, rec := range m.recs {
		if keep(rec) {
			kept = append(kept, rec)
			bytes += uint64(len(rec))
		}
	}
	m.recs, m.bytes = kept, bytes
	return nil
}

// Close implements Journal.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Stats implements Journal.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Records: uint64(len(m.recs)), Bytes: m.bytes, Segments: 1}
}

// Snapshot returns an independent copy of the journal at this instant:
// the crash-simulation primitive tests use to freeze a journal mid-run
// and recover an engine from it.
func (m *Memory) Snapshot() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := &Memory{recs: make([][]byte, len(m.recs)), bytes: m.bytes}
	copy(cp.recs, m.recs)
	return cp
}
