package bifrost

import (
	"encoding/binary"
	"sort"
	"time"
)

// trail is a run's audit trail: events packed back to back into
// append-only byte chunks and decoded when read. A chunk is never
// reallocated and a written byte never rewritten, and neither tables nor
// chunk list ever change an entry they hold, so a copy of the struct
// taken under the run's lock stays decodable after the lock is released,
// whatever is appended meanwhile. Nothing in a chunk is a pointer: the
// collector does not trace it.
//
// One event is
//
//	flags    1 byte   trailSameInstant: At is the previous event's
//	type     uvarint  index into strs, from 1; 0 is ""
//	phase    uvarint  likewise
//	check    uvarint  likewise
//	outcome  varint
//	zone     uvarint  index into zones      } absent under
//	seconds  varint   Unix seconds, as a    } trailSameInstant
//	                  delta from the previous
//	                  event of the chunk
//	                  (from 0 for its first)
//	nanos    uvarint                        }
//	detail   uvarint length, then the bytes
//
// which is 18 to 21 bytes for a metric check-result. A chunk's first
// event never depends on the chunk before it, so a read starts at the
// chunk holding the first event it wants.
type trail struct {
	chunks []trailChunk
	tail   []byte // the last chunk's written bytes; its capacity is the chunk's
	n      int    // events held
	bytes  int    // chunk bytes allocated

	strs  []string         // every non-empty Type, Phase and Check seen, by first use
	zones []*time.Location // every zone an instant was stamped in

	// The previous event's type, phase and instant. A tick's events share
	// all three, so they neither scan strs nor store an instant. prev and
	// prevSec start every chunk at their zero values, as a reader does.
	typ, phase       string
	typIdx, phaseIdx uint64
	prev             time.Time
	prevSec          int64
}

// trailChunk is immutable once listed: b's length is fixed at its
// capacity (the writer tracks how much is used in trail.tail), and the
// events a reader may decode from it are counted, not delimited — up to
// the next chunk's first, or the trail's n.
type trailChunk struct {
	b     []byte
	first int // index of the chunk's first event
}

const (
	trailFirstChunk = 256  // a nine-event canary-and-rollback trail fits
	trailFullChunk  = 4096 // a page: ~220 check-results

	trailSameInstant = 1 << 0

	// trailEventMax bounds an event's encoding without its detail bytes:
	// flags, seven varints and the nanoseconds.
	trailEventMax = 1 + 7*binary.MaxVarintLen64 + binary.MaxVarintLen32
)

// trailOf packs events into a fresh trail.
func trailOf(events []Event) trail {
	var t trail
	for _, ev := range events {
		t.append(ev)
	}
	return t
}

func (t *trail) append(ev Event) {
	if need := trailEventMax + len(ev.Detail); cap(t.tail)-len(t.tail) < need {
		size := max(min(max(2*cap(t.tail), trailFirstChunk), trailFullChunk), need)
		t.tail = make([]byte, 0, size)
		t.chunks = append(t.chunks, trailChunk{b: t.tail[:size], first: t.n})
		t.bytes += size
		t.prev, t.prevSec = time.Time{}, 0
	}
	if string(ev.Type) != t.typ {
		t.typ, t.typIdx = string(ev.Type), t.intern(string(ev.Type))
	}
	if ev.Phase != t.phase {
		t.phase, t.phaseIdx = ev.Phase, t.intern(ev.Phase)
	}
	same, flags := ev.At == t.prev, byte(0) // the zone too: equal instants in two zones print differently
	if same {
		flags = trailSameInstant
	}
	b := append(t.tail, flags)
	b = binary.AppendUvarint(b, t.typIdx)
	b = binary.AppendUvarint(b, t.phaseIdx)
	b = binary.AppendUvarint(b, t.intern(ev.Check))
	b = binary.AppendVarint(b, int64(ev.Outcome))
	if !same {
		sec := ev.At.Unix()
		b = binary.AppendUvarint(b, t.zone(ev.At))
		b = binary.AppendVarint(b, sec-t.prevSec)
		b = binary.AppendUvarint(b, uint64(ev.At.Nanosecond()))
		t.prev, t.prevSec = ev.At, sec
	}
	b = binary.AppendUvarint(b, uint64(len(ev.Detail)))
	t.tail = append(b, ev.Detail...)
	t.n++
}

// intern returns the index an event stores for s: 0 for "", else one
// more than s's position in strs, where it is added on first sight. A
// run's vocabulary is its event types and its strategy's phase and check
// names, so the scan is short.
func (t *trail) intern(s string) uint64 {
	if s == "" {
		return 0
	}
	for i, have := range t.strs {
		if have == s {
			return uint64(i + 1)
		}
	}
	t.strs = append(t.strs, s)
	return uint64(len(t.strs))
}

// str is intern's inverse.
func (t *trail) str(i uint64) string {
	if i == 0 {
		return ""
	}
	return t.strs[i-1]
}

// zone returns the index of a zone that prints at as at's own does: the
// same *time.Location, else one in which at has the same abbreviation
// and offset — every stamp parsed from "+02:00" brings a Location of its
// own, and a recovered trail must not keep them all. UTC stands for
// other zones, never another for it: a UTC stamp reads back ==.
func (t *trail) zone(at time.Time) uint64 {
	loc := at.Location()
	for i, z := range t.zones {
		if z == loc {
			return uint64(i)
		}
	}
	if loc != time.UTC {
		name, offset := at.Zone()
		for i, z := range t.zones {
			if n, o := at.In(z).Zone(); n == name && o == offset {
				return uint64(i)
			}
		}
	}
	t.zones = append(t.zones, loc)
	return uint64(len(t.zones) - 1)
}

// from decodes the events at index i and later. It may run on a copy of
// the trail while the original is appended to.
func (t *trail) from(i int) []Event {
	i = min(max(i, 0), t.n)
	out := make([]Event, 0, t.n-i)
	// The chunk holding event i is the last whose first is at or before i.
	c := sort.Search(len(t.chunks), func(c int) bool { return t.chunks[c].first > i }) - 1
	for ; i < t.n; c++ {
		end := t.n
		if c+1 < len(t.chunks) {
			end = t.chunks[c+1].first
		}
		var (
			r       = trailReader{t.chunks[c].b}
			at      time.Time
			prevSec int64
		)
		for k := t.chunks[c].first; k < end; k++ {
			flags := r.b[0]
			r.b = r.b[1:]
			ev := Event{Type: EventType(t.str(r.uvarint())), Phase: t.str(r.uvarint()),
				Check: t.str(r.uvarint()), Outcome: Outcome(r.varint())}
			if flags&trailSameInstant == 0 {
				zone := t.zones[r.uvarint()]
				prevSec += r.varint()
				at = time.Unix(prevSec, int64(r.uvarint())).In(zone)
			}
			ev.At = at
			n := r.uvarint()
			if k >= i {
				ev.Detail = string(r.b[:n])
				out = append(out, ev)
			}
			r.b = r.b[n:]
		}
		i = end
	}
	return out
}

// trailReader consumes varints the trail itself wrote, so a malformed
// one is a bug and panics on the slice.
type trailReader struct{ b []byte }

func (r *trailReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *trailReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}
