// Package journal provides the write-ahead log that makes strategy
// enactment durable. The Bifrost engine appends one framed record per
// run event *before* applying the event's side effects; replaying the
// journal therefore reconstructs every run — finished and in-flight —
// after a crash or restart (see Engine.Recover in internal/bifrost).
//
// Two backends implement the same interface: Memory keeps records in a
// slice (tests, benches, and daemons that opt out of durability), and
// FileLog is a segmented append-only file log with CRC-framed records,
// batched fsync, segment rotation, and compaction (filelog.go).
// WriteFile and ReadFile frame a file written whole the same way.
package journal

// Journal is an append-only record log. Records are opaque byte
// payloads; framing, durability, and ordering are the journal's
// concern, interpretation is the caller's.
//
// Append must be safe for concurrent use. Replay must be safe to run
// while concurrent Appends happen, and the callback is allowed to
// Append to the same journal: records appended after Replay starts are
// simply not part of that replay.
type Journal interface {
	// Append adds one record to the log. Records must be non-empty.
	// When Append returns, the record is visible to Replay; durability
	// against crashes follows the backend's sync policy (see
	// Options.SyncInterval for FileLog). Append does not retain rec; the
	// caller may reuse it once Append returns.
	Append(rec []byte) error
	// Replay calls fn for every record in append order and stops at the
	// first error fn returns.
	Replay(fn func(rec []byte) error) error
	// Sync forces buffered records to stable storage.
	Sync() error
	// Compact rewrites the log keeping only the records keep returns
	// true for, in order. keep must not touch the journal (Compact
	// holds the journal's lock).
	Compact(keep func(rec []byte) bool) error
	// Stats reports the log's size and activity.
	Stats() Stats
	// Close releases the journal. Appends after Close fail.
	Close() error
}

// Stats describes a journal's size and activity; /healthz reports it
// as its journal object.
type Stats struct {
	// Records is the number of records in the log. For FileLog the
	// on-disk records present at open time are tallied by the first
	// full Replay or Compact (Engine.Recover runs one of each at boot);
	// before that, Records reflects only this process's appends.
	Records uint64 `json:"records"`
	// Bytes is the total size of the log, framing included.
	Bytes uint64 `json:"bytes"`
	// Segments is the number of on-disk segment files (1 for Memory).
	Segments int `json:"segments"`
	// Syncs counts fsync batches flushed to stable storage.
	Syncs uint64 `json:"syncs"`
	// Truncations counts torn record tails dropped during replays: the
	// residue of crashes mid-append.
	Truncations uint64 `json:"truncations"`
}
