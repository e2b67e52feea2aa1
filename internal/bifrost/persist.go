package bifrost

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"contexp/internal/journal"
)

// This file defines the wire form of run events: the JSON payload the
// engine appends to its write-ahead journal (internal/journal) before
// applying each event's side effects. The envelope is self-contained —
// run name, event fields, and (on run-launched / run-finished records)
// the strategy source and terminal status — so a journal alone suffices
// to rebuild every run (see recover.go).

// wireRecord is the journaled form of one run event.
type wireRecord struct {
	// Run names the run the event belongs to. The name is
	// tenant-qualified (tenancy.Qualify), so pre-tenancy journals — and
	// all default-tenant records — carry the bare strategy name.
	Run string `json:"run"`
	// Tenant is the canonical owning tenant; omitted for the default
	// tenant, which keeps default-tenant records byte-identical to
	// pre-tenancy ones.
	Tenant string `json:"tenant,omitempty"`
	// V is the record format version.
	V  int       `json:"v"`
	At time.Time `json:"at"`
	// Type is the event type; Phase, Check, Outcome, and Detail mirror
	// Event.
	Type    EventType `json:"type"`
	Phase   string    `json:"phase,omitempty"`
	Check   string    `json:"check,omitempty"`
	Outcome Outcome   `json:"outcome,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// Strategy carries the canonical DSL source on run-launched records,
	// making the journal self-contained: recovery reparses it instead of
	// needing a second store.
	Strategy string `json:"strategy,omitempty"`
	// Status carries the terminal state on run-finished records.
	Status RunStatus `json:"status,omitempty"`
}

// wireVersion is bumped when the record schema changes incompatibly.
const wireVersion = 1

// recordScratch pools the buffers records are encoded into: a record's
// bytes are dead once Journal.Append has returned (it copies), so no run
// owns a buffer.
var recordScratch = sync.Pool{New: func() any { return new([]byte) }}

// journalEvent appends one event's record to j.
func journalEvent(j journal.Journal, s *Strategy, ev Event, strategyDSL string, status RunStatus) error {
	buf := recordScratch.Get().(*[]byte)
	rec, err := appendRecord((*buf)[:0], s.RunKey(), s.Tenant, ev, strategyDSL, status)
	if err == nil {
		err = j.Append(rec)
	}
	*buf = rec
	recordScratch.Put(buf)
	return err
}

// recordHead is the encoded head of a run's last journal record and the
// (At, Type, Phase) it was encoded from. A tick's records open alike —
// same run, same instant, same type, same phase — so all but the first
// copy the head instead of formatting the instant and quoting four
// strings again.
type recordHead struct {
	at    time.Time
	typ   EventType
	phase string
	b     []byte
}

// journal is journalEvent for the run that owns h.
func (h *recordHead) journal(j journal.Journal, s *Strategy, ev Event, strategyDSL string, status RunStatus) error {
	if len(h.b) == 0 || ev.At != h.at || ev.Type != h.typ || ev.Phase != h.phase {
		b, err := appendRecordHead(h.b[:0], s.RunKey(), s.Tenant, ev.At, ev.Type, ev.Phase)
		if err != nil {
			h.b = b[:0]
			return err
		}
		*h = recordHead{at: ev.At, typ: ev.Type, phase: ev.Phase, b: b}
	}
	buf := recordScratch.Get().(*[]byte)
	rec := appendRecordTail(append((*buf)[:0], h.b...), ev.Check, ev.Outcome, ev.Detail, strategyDSL, status)
	err := j.Append(rec)
	*buf = rec
	recordScratch.Put(buf)
	return err
}

// appendRecord appends one event's journal record to dst: byte for byte
// and error for error what json.Marshal of the wireRecord gives — field
// order, omitempty, time and string escaping — without reflecting over
// it. FuzzRecordEncoding holds it to that. It is a head, which only the
// instant can fail, and a tail.
func appendRecord(dst []byte, run, tenant string, ev Event, strategyDSL string, status RunStatus) ([]byte, error) {
	dst, err := appendRecordHead(dst, run, tenant, ev.At, ev.Type, ev.Phase)
	if err != nil {
		return dst, err
	}
	return appendRecordTail(dst, ev.Check, ev.Outcome, ev.Detail, strategyDSL, status), nil
}

// appendRecordHead appends a record up to and including its phase.
func appendRecordHead(dst []byte, run, tenant string, at time.Time, typ EventType, phase string) ([]byte, error) {
	dst = appendJSONString(append(dst, `{"run":`...), run)
	if tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), tenant)
	}
	dst = strconv.AppendInt(append(dst, `,"v":`...), wireVersion, 10)
	dst, err := appendJSONTime(append(dst, `,"at":`...), at)
	if err != nil {
		return dst, err
	}
	dst = appendJSONString(append(dst, `,"type":`...), string(typ))
	if phase != "" {
		dst = appendJSONString(append(dst, `,"phase":`...), phase)
	}
	return dst, nil
}

// appendRecordTail appends what follows a record's head, and closes it.
func appendRecordTail(dst []byte, check string, outcome Outcome, detail, strategyDSL string, status RunStatus) []byte {
	if check != "" {
		dst = appendJSONString(append(dst, `,"check":`...), check)
	}
	if outcome != 0 {
		dst = strconv.AppendInt(append(dst, `,"outcome":`...), int64(outcome), 10)
	}
	if detail != "" {
		dst = appendJSONString(append(dst, `,"detail":`...), detail)
	}
	if strategyDSL != "" {
		dst = appendJSONString(append(dst, `,"strategy":`...), strategyDSL)
	}
	if status != 0 {
		dst = strconv.AppendInt(append(dst, `,"status":`...), int64(status), 10)
	}
	return append(dst, '}')
}

// jsonPlain marks the bytes encoding/json copies into a string as they
// are: printable ASCII without the five that json.Marshal escapes.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		plain[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return plain
}()

// appendJSONString appends s as encoding/json quotes it. A string of
// jsonPlain bytes is copied between quotes; anything else — control
// bytes, non-ASCII, invalid UTF-8 — is left to json.Marshal of that one
// string.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendJSONTime appends t as time.Time.MarshalJSON writes it: quoted
// RFC3339Nano. MarshalJSON refuses what RFC 3339 cannot express — a year
// outside 0–9999, a zone offset of a day or more — by checks on the
// formatted bytes that are repeated here; such a time is left to
// json.Marshal, whose error is then the whole record's.
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	start := len(dst)
	dst = append(t.AppendFormat(append(dst, '"'), time.RFC3339Nano), '"')
	b := dst[start+1 : len(dst)-1]
	strict := b[len("9999")] == '-' // the year is exactly four digits wide
	if strict && b[len(b)-1] != 'Z' {
		c, hour := b[len(b)-len("Z07:00")], b[len(b)-len("07:00"):]
		strict = (c < '0' || c > '9') && 10*(hour[0]-'0')+(hour[1]-'0') < 24
	}
	if strict {
		return dst, nil
	}
	quoted, err := json.Marshal(t)
	return append(dst[:start], quoted...), err
}

// decodeRecord unmarshals one journal record.
func decodeRecord(rec []byte) (wireRecord, error) {
	var wr wireRecord
	if err := json.Unmarshal(rec, &wr); err != nil {
		return wireRecord{}, fmt.Errorf("bifrost: undecodable journal record: %w", err)
	}
	if wr.Run == "" || wr.Type == "" {
		return wireRecord{}, fmt.Errorf("bifrost: journal record without run or type")
	}
	if wr.V > wireVersion {
		return wireRecord{}, fmt.Errorf("bifrost: journal record version %d newer than supported %d", wr.V, wireVersion)
	}
	return wr, nil
}

// event converts the wire form back to the in-memory form.
func (wr wireRecord) event() Event {
	return Event{
		At:      wr.At,
		Type:    wr.Type,
		Phase:   wr.Phase,
		Check:   wr.Check,
		Outcome: wr.Outcome,
		Detail:  wr.Detail,
	}
}
