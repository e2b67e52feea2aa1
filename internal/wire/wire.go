// Package wire implements the compact binary batch format of the
// telemetry ingestion hot path: a length-prefixed, columnar encoding of
// metric samples and trace spans that the control plane content-
// negotiates on POST /v1/metrics and /v1/spans next to the JSON form.
//
// Where encoding/json allocates per field on every request, this codec
// decodes a whole batch with zero steady-state allocations: strings are
// deduplicated into a per-frame dictionary on the wire and interned
// across frames on the receiver (in a table of bounded size), numeric
// columns are fixed-width little-endian arrays read in place, and both
// encoders and decoders keep their scratch buffers across calls
// (sync.Pool at the package surface). That is what lets ingestion ride
// at full load-generator throughput with a flat GC profile — the
// property CI enforces through `benchgate --gate-allocs`.
//
// # Frame layout (version 2)
//
//	offset  size  field
//	0       2     magic "CX"
//	2       1     format version (2)
//	3       1     batch kind: 1 = metric samples, 2 = spans
//	4       4     body length, uint32 little-endian
//	8       ...   body (exactly body-length bytes)
//
// The body is a string dictionary followed by column-major arrays, all
// integers little-endian:
//
//	dictionary:  u32 count, then per string: u32 byteLen + bytes
//	row count:   u32 n
//
// A string column holds dictionary indexes of w bytes each, where w is
// set by the dictionary's count: 1 for up to 256 strings, 2 for up to
// 65 536, 4 above. The width is not carried in the frame; both sides
// derive it from the count.
//
//	metrics columns (kind 1):
//	  metric   [n]uw   dictionary index
//	  service  [n]uw   dictionary index
//	  version  [n]uw   dictionary index
//	  variant  [n]uw   dictionary index ("" allowed)
//	  value    [n]u64  IEEE-754 bits
//	  at       u8 tag, then
//	             tag 0: one i64 every row carries
//	             tag 1: [n]i64, one per row
//	           UnixNano; 0 = unset (receiver stamps arrival)
//
//	span columns (kind 2):
//	  traceId  [n]u64
//	  spanId   [n]u64
//	  parentId [n]u64  0 = root span
//	  service  [n]uw   dictionary index
//	  version  [n]uw   dictionary index
//	  endpoint [n]uw   dictionary index
//	  start    [n]i64  UnixNano; 0 = unset
//	  duration [n]i64  nanoseconds
//	  err      bitset, ceil(n/8) bytes, LSB-first
//
// The encoder writes the at column with tag 0 exactly when every sample
// carries the same stamp: a batch left unstamped, or stamped with one
// instant as the control plane stamps on arrival. A fleet's 256-sample
// flush over a few dozen names so fits one 4 KiB transport write.
//
// A timestamp of exactly UnixNano 0 cannot be represented (it reads
// back as unset); real telemetry never stamps the 1970 epoch.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"contexp/internal/metrics"
	"contexp/internal/tracing"
)

// ContentType is the negotiated media type of binary batch frames.
const ContentType = "application/x-contexp-batch"

// Version is the format version this package reads and writes, for
// every frame kind; a frame of any other version is a DecodeError.
const Version = 2

// Batch kinds.
const (
	KindMetrics = 1
	KindSpans   = 2
)

// HeaderSize is the fixed frame prefix length.
const HeaderSize = 8

// MaxStrings and MaxRows bound a single frame regardless of the
// transport's body limit, so a hostile header cannot demand huge
// allocations before the column bounds checks run.
const (
	MaxStrings = 1 << 20
	MaxRows    = 1 << 22
)

// DecodeError describes a malformed frame; the server maps it to 400.
type DecodeError struct{ msg string }

func (e *DecodeError) Error() string { return "wire: " + e.msg }

func errf(format string, args ...any) error {
	return &DecodeError{msg: fmt.Sprintf(format, args...)}
}

// header validates the fixed prefix and returns the kind and body.
func header(frame []byte, wantKind byte) ([]byte, error) {
	if len(frame) < HeaderSize {
		return nil, errf("frame shorter than %d-byte header", HeaderSize)
	}
	if frame[0] != 'C' || frame[1] != 'X' {
		return nil, errf("bad magic %q", frame[:2])
	}
	if frame[2] != Version {
		return nil, errf("unsupported version %d (want %d)", frame[2], Version)
	}
	if frame[3] != wantKind {
		return nil, errf("frame kind %d, want %d", frame[3], wantKind)
	}
	bodyLen := binary.LittleEndian.Uint32(frame[4:8])
	if int(bodyLen) != len(frame)-HeaderSize {
		return nil, errf("body length %d does not match %d frame bytes", bodyLen, len(frame)-HeaderSize)
	}
	return frame[HeaderSize:], nil
}

// Kind peeks a frame's batch kind without decoding (0 if malformed).
func Kind(frame []byte) byte {
	if len(frame) < HeaderSize || frame[0] != 'C' || frame[1] != 'X' {
		return 0
	}
	return frame[3]
}

// --- encoding ---

// enc is the shared encoder core: a grow-only frame buffer and the
// frame's string dictionary. The two kinds of encoder find a string's
// dictionary index differently, as the decoders keep strings differently
// (readDict):
//
//   - Routing encoders intern into a map (idx) cleared per frame. A
//     table that outlived the frame would hold every run name the hub
//     ever published, as the routing decoders would.
//   - Telemetry encoders (telemetryEnc) keep a string table for their
//     lifetime instead, and leave idx nil.
type enc struct {
	buf  []byte
	strs []string
	// dictBytes is the serialized size of strs (u32 length + bytes each),
	// kept as strings are added so dict can size its write before making it.
	dictBytes int
	idx       map[string]uint32
}

func (e *enc) reset(kind byte) {
	e.buf = append(e.buf[:0], 'C', 'X', Version, kind, 0, 0, 0, 0)
	clear(e.idx)
	e.strs = e.strs[:0]
	e.dictBytes = 0
}

// add appends s to the frame's dictionary and returns its index.
func (e *enc) add(s string) uint32 {
	e.strs = append(e.strs, s)
	e.dictBytes += 4 + len(s)
	return uint32(len(e.strs) - 1)
}

// intern returns a routing frame's dictionary index of s, adding it on
// first use.
func (e *enc) intern(s string) uint32 {
	if i, ok := e.idx[s]; ok {
		return i
	}
	if e.idx == nil {
		e.idx = make(map[string]uint32)
	}
	i := e.add(s)
	e.idx[s] = i
	return i
}

// telemetryEnc is the core of the columnar (metrics and spans) encoders.
// A client sends the same metric, service and version strings in every
// flush, so a cell is resolved by the string's identity — its data
// pointer and length — in tab's front cache, and its contents are hashed
// only the first time that string value is met.
type telemetryEnc struct {
	enc
	tab strTable
	// cols holds a batch's string columns as dictionary indexes, column
	// after column in wire order. It is filled in the one pass that
	// resolves the batch, so the columns are written from it rather than
	// from a second lookup per cell.
	cols []uint32
}

func (e *telemetryEnc) reset(kind byte) {
	e.enc.reset(kind)
	e.tab.nextFrame()
}

// strTable is a telemetry encoder's string table: every distinct string
// it has encoded gets a stable id, and seen[id] says whether, and at
// which index, the current frame's dictionary holds it. Like a decoder's
// intern table it is dropped when it reaches maxInterned strings, at the
// start of a frame, so a frame's dictionary never changes under it.
type strTable struct {
	ids  map[string]uint32 // string value → id
	seen []seenStr         // by id
	gen  uint32            // the current frame's; 0 marks no frame
	// front caches ids by string identity. Go strings are immutable and
	// an entry's pointer keeps its string's bytes alive, so an equal
	// pointer and length mean equal bytes. Allocated on the first frame.
	front *[frontSize]frontEntry
	// last is the string the front cache last missed, and lastID its id
	// + 1, 0 when there is none.
	// An emitter that builds its strings per sample (a service name read
	// from each request) misses on every such cell, and usually sends a
	// run of one value: a compare answers the run without hashing.
	last   string
	lastID uint32
}

// seenStr is where one string last went: into frame gen's dictionary at
// index at.
type seenStr struct{ gen, at uint32 }

// frontEntry is one slot of the front cache: 16 bytes.
type frontEntry struct {
	p *byte
	// n is len(s) + 1, so that no string matches a zeroed entry; a frame
	// cannot carry a string of 4 GiB.
	n  uint32
	id uint32
}

const (
	frontBits = 9
	frontSize = 1 << frontBits
)

// nextFrame starts a frame: no string is in its dictionary yet.
func (t *strTable) nextFrame() {
	if t.front == nil {
		t.front = new([frontSize]frontEntry)
		t.ids = make(map[string]uint32)
	}
	if len(t.seen) >= maxInterned {
		clear(t.ids)
		clear(t.front[:])
		t.seen = t.seen[:0]
		t.last, t.lastID = "", 0
	}
	if t.gen++; t.gen == 0 { // wrapped: no gen in seen may look current
		clear(t.seen)
		t.gen = 1
	}
}

// cell returns the dictionary index of one string cell, adding the
// string on its first use in the frame.
func (e *telemetryEnc) cell(s string) uint32 {
	t := &e.tab
	p, n := unsafe.StringData(s), uint32(len(s))+1
	f := &t.front[(uint64(uintptr(unsafe.Pointer(p)))^uint64(n))*0x9E3779B97F4A7C15>>(64-frontBits)]
	if f.p != p || f.n != n {
		id := t.lastID - 1
		if t.lastID == 0 || s != t.last {
			var ok bool
			if id, ok = t.ids[s]; !ok {
				id = uint32(len(t.seen))
				t.ids[s] = id
				t.seen = append(t.seen, seenStr{})
			}
			t.last, t.lastID = s, id+1
		}
		*f = frontEntry{p: p, n: n, id: id}
	}
	m := &t.seen[f.id]
	if m.gen != t.gen {
		m.gen, m.at = t.gen, e.add(s)
	}
	return m.at
}

// strCols returns the index scratch for k string columns of n rows,
// one []uint32 of n per column.
func (e *telemetryEnc) strCols(k, n int) []uint32 {
	if cap(e.cols) < k*n {
		e.cols = make([]uint32, k*n)
	}
	return e.cols[:k*n]
}

func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// extend lengthens the frame by n bytes, growing the buffer at most
// once, and returns them for writes at known offsets.
func (e *enc) extend(n int) []byte {
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:at+n]
	return e.buf[at:]
}

func (e *enc) dict() {
	out := e.extend(4 + e.dictBytes)
	binary.LittleEndian.PutUint32(out, uint32(len(e.strs)))
	at := 4
	for _, s := range e.strs {
		binary.LittleEndian.PutUint32(out[at:], uint32(len(s)))
		at += 4 + copy(out[at+4:], s)
	}
}

// indexWidth is the byte width of a string column's cells in a frame
// whose dictionary holds count strings.
func indexWidth(count int) int {
	switch {
	case count <= 1<<8:
		return 1
	case count <= 1<<16:
		return 2
	}
	return 4
}

// putIndexes writes vs as consecutive little-endian w-byte indexes at
// the front of out and returns the rest of out.
func putIndexes(out []byte, vs []uint32, w int) []byte {
	switch w {
	case 1:
		for i, v := range vs {
			out[i] = byte(v)
		}
	case 2:
		for i, v := range vs {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
		}
	default:
		for i, v := range vs {
			binary.LittleEndian.PutUint32(out[4*i:], v)
		}
	}
	return out[w*len(vs):]
}

// finish stamps the body length and returns the frame, valid until the
// encoder's next Encode.
func (e *enc) finish() []byte {
	binary.LittleEndian.PutUint32(e.buf[4:8], uint32(len(e.buf)-HeaderSize))
	return e.buf
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Tags of the metrics frame's at column.
const (
	atOnce   = 0 // one i64 for every row
	atPerRow = 1 // an i64 per row
)

// MetricsEncoder encodes metric sample batches. Not safe for concurrent
// use; the returned frame is valid until the next Encode.
type MetricsEncoder struct{ e telemetryEnc }

// Encode renders samples as one binary frame.
func (m *MetricsEncoder) Encode(samples []metrics.Sample) []byte {
	e := &m.e
	e.reset(KindMetrics)
	// The dictionary serializes before the columns that index it, so the
	// batch is interned first: one pass, row by row (which fixes the
	// dictionary's order), each cell's index kept in the scratch the
	// columns are then written from. The same pass learns whether every
	// row carries one stamp.
	n := len(samples)
	cols := e.strCols(4, n)
	metric, service, version, variant := cols[:n], cols[n:2*n], cols[2*n:3*n], cols[3*n:]
	var at int64
	if n > 0 {
		at = unixNano(samples[0].At)
	}
	perRow := false
	for i := range samples {
		s := &samples[i]
		metric[i] = e.cell(s.Metric)
		service[i] = e.cell(s.Scope.Service)
		version[i] = e.cell(s.Scope.Version)
		variant[i] = e.cell(s.Scope.Variant)
		perRow = perRow || unixNano(s.At) != at
	}
	e.dict()
	w := indexWidth(len(e.strs))
	timeBytes := 8
	if perRow {
		timeBytes = 8 * n
	}
	out := e.extend(4 + n*(4*w+8) + 1 + timeBytes)
	binary.LittleEndian.PutUint32(out, uint32(n))
	out = putIndexes(out[4:], cols, w)
	for i := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(samples[i].Value))
	}
	out = out[8*n:]
	if !perRow {
		out[0] = atOnce
		binary.LittleEndian.PutUint64(out[1:], uint64(at))
		return e.finish()
	}
	out[0] = atPerRow
	out = out[1:]
	for i := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(unixNano(samples[i].At)))
	}
	return e.finish()
}

// SpansEncoder encodes span batches. Not safe for concurrent use; the
// returned frame is valid until the next Encode.
type SpansEncoder struct{ e telemetryEnc }

// Encode renders spans as one binary frame. The span Variant tag is not
// carried (parity with the JSON ingestion form, which also omits it).
func (se *SpansEncoder) Encode(spans []tracing.Span) []byte {
	e := &se.e
	e.reset(KindSpans)
	// Interned in one pass, as in MetricsEncoder.Encode.
	n := len(spans)
	cols := e.strCols(3, n)
	service, version, endpoint := cols[:n], cols[n:2*n], cols[2*n:]
	for i := range spans {
		s := &spans[i]
		service[i] = e.cell(s.Service)
		version[i] = e.cell(s.Version)
		endpoint[i] = e.cell(s.Endpoint)
	}
	e.dict()
	w := indexWidth(len(e.strs))
	out := e.extend(4 + n*spanRowWidth(w) + (n+7)/8)
	binary.LittleEndian.PutUint32(out, uint32(n))
	out = out[4:]
	for i := range spans {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(spans[i].TraceID))
	}
	out = out[8*n:]
	for i := range spans {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(spans[i].SpanID))
	}
	out = out[8*n:]
	for i := range spans {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(spans[i].ParentID))
	}
	out = putIndexes(out[8*n:], cols, w)
	for i := range spans {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(unixNano(spans[i].Start)))
	}
	out = out[8*n:]
	for i := range spans {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(spans[i].Duration))
	}
	out = out[8*n:]
	clear(out) // the error bitset is OR-ed into a reused buffer
	for i := range spans {
		if spans[i].Err {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return e.finish()
}

// --- decoding ---

// maxInterned bounds a decoder's intern table and a telemetry encoder's
// string table. Decoders are pooled and live as long as the process, as
// a client's encoders do, so without a bound an emitter that sends
// never-repeating strings (request IDs as label values) would grow
// every one of them forever. A table that fills is dropped and starts
// again: a fleet's working set of names is far smaller, so steady-state
// coding still allocates nothing.
const maxInterned = 1 << 14

// dec is the shared decoder core. A telemetry decoder's intern table
// persists across frames: once every distinct string has been seen,
// decoding allocates nothing. Routing decoders leave it nil.
type dec struct {
	body   []byte
	off    int
	intern map[string]string
	strs   []string // the frame's dictionary, resolved to strings
	// idx is the index scratch of the columnar decoders: a frame's
	// string columns, widened to u32 and checked against strs.
	idx []uint32
}

func (d *dec) u32() (uint32, error) {
	if d.off+4 > len(d.body) {
		return 0, errf("truncated frame: need 4 bytes at offset %d of %d", d.off, len(d.body))
	}
	v := binary.LittleEndian.Uint32(d.body[d.off:])
	d.off += 4
	return v, nil
}

func (d *dec) u64() (uint64, error) {
	if d.off+8 > len(d.body) {
		return 0, errf("truncated frame: need 8 bytes at offset %d of %d", d.off, len(d.body))
	}
	v := binary.LittleEndian.Uint64(d.body[d.off:])
	d.off += 8
	return v, nil
}

// readDict parses the string dictionary of a frame of the given kind.
// Telemetry frames intern every entry: a fleet's metric, service and
// endpoint names repeat in every batch, and the decoded rows are
// dropped once stored, so a warm table decodes without allocating.
// Routing frames copy every entry out of the frame: their strings live
// in the receiving table exactly as long as the route that holds them,
// and a run name (a traffic route's sticky salt) appears only in the
// frames of the one strategy that launched it, so a table of them would
// hold every run the control plane ever enacted.
func (d *dec) readDict(kind byte) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	if n > MaxStrings || int(n)*4 > len(d.body)-d.off {
		return errf("dictionary declares %d strings in %d remaining bytes", n, len(d.body)-d.off)
	}
	intern := kind == KindMetrics || kind == KindSpans
	if intern && d.intern == nil {
		d.intern = make(map[string]string)
	}
	d.strs = d.strs[:0]
	for i := uint32(0); i < n; i++ {
		l, err := d.u32()
		if err != nil {
			return err
		}
		if int(l) > len(d.body)-d.off {
			return errf("string %d declares %d bytes, %d remain", i, l, len(d.body)-d.off)
		}
		raw := d.body[d.off : d.off+int(l)]
		d.off += int(l)
		if !intern {
			d.strs = append(d.strs, string(raw))
			continue
		}
		// The map lookup on a []byte conversion does not allocate; only
		// a first-seen string pays for its copy out of the frame buffer.
		s, ok := d.intern[string(raw)]
		if !ok {
			if len(d.intern) >= maxInterned {
				clear(d.intern) // strings already handed out stay valid
			}
			s = string(raw)
			d.intern[s] = s
		}
		d.strs = append(d.strs, s)
	}
	return nil
}

func (d *dec) str(i uint32) (string, error) {
	if int(i) >= len(d.strs) {
		return "", errf("string index %d out of dictionary range %d", i, len(d.strs))
	}
	return d.strs[i], nil
}

// take returns the next n bytes of a body whose length the caller has
// checked.
func (d *dec) take(n int) []byte {
	b := d.body[d.off : d.off+n]
	d.off += n
	return b
}

// indexes reads k string columns of n w-byte dictionary indexes into
// the decoder's scratch, widened to u32, and checks every one against
// the dictionary. The caller has checked the body length.
func (d *dec) indexes(k, n, w int) ([]uint32, error) {
	if cap(d.idx) < k*n {
		d.idx = make([]uint32, k*n)
	}
	idx := d.idx[:k*n]
	b := d.take(w * k * n)
	var top uint32
	switch w {
	case 1:
		for i := range idx {
			idx[i] = uint32(b[i])
			top = max(top, idx[i])
		}
	case 2:
		for i := range idx {
			idx[i] = uint32(binary.LittleEndian.Uint16(b[2*i:]))
			top = max(top, idx[i])
		}
	default:
		for i := range idx {
			idx[i] = binary.LittleEndian.Uint32(b[4*i:])
			top = max(top, idx[i])
		}
	}
	if len(idx) > 0 && int(top) >= len(d.strs) {
		return nil, errf("string index %d out of dictionary range %d", top, len(d.strs))
	}
	return idx, nil
}

// instant is the time a UnixNano column cell stands for.
func instant(ns uint64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(ns))
}

// MetricsDecoder decodes metric sample frames. Not safe for concurrent
// use. The returned slice is decoder-owned and valid until the next
// Decode — callers hand it straight to Store.RecordBatch. Its strings
// are interned for the decoder's life (up to maxInterned of them), so a
// series' samples carry the same strings, at the same addresses, frame
// after frame: the store's write cache keys on those addresses, and
// finds the series without building or hashing its key.
type MetricsDecoder struct {
	d       dec
	samples []metrics.Sample
}

// Decode parses one metrics frame.
func (md *MetricsDecoder) Decode(frame []byte) ([]metrics.Sample, error) {
	body, err := header(frame, KindMetrics)
	if err != nil {
		return nil, err
	}
	d := &md.d
	d.body, d.off = body, 0
	if err := d.readDict(KindMetrics); err != nil {
		return nil, err
	}
	n32, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Four index columns and the values, then the at column's tag, which
	// sets how many time bytes must follow.
	n, w, rest := int(n32), indexWidth(len(d.strs)), len(d.body)-d.off
	if n32 > MaxRows || n*(4*w+8)+1 > rest {
		return nil, errf("%d rows of %d column bytes do not fit %d remaining bytes", n, 4*w+8, rest)
	}
	tag, timeBytes := d.body[d.off+n*(4*w+8)], 8
	switch tag {
	case atOnce:
	case atPerRow:
		timeBytes = 8 * n
	default:
		return nil, errf("%d rows: at column tag %d, want %d (one stamp) or %d (one per row)", n, tag, atOnce, atPerRow)
	}
	if n*(4*w+8)+1+timeBytes != rest {
		return nil, errf("%d rows of %d column bytes and %d time bytes do not fit %d remaining bytes", n, 4*w+8, timeBytes, rest)
	}
	idx, err := d.indexes(4, n, w)
	if err != nil {
		return nil, err
	}
	if cap(md.samples) < n {
		md.samples = make([]metrics.Sample, n)
	}
	out := md.samples[:n]
	metric, service, version, variant := idx[:n], idx[n:2*n], idx[2*n:3*n], idx[3*n:]
	values := d.take(8 * n)
	d.off++ // the tag
	times := d.take(timeBytes)
	strs := d.strs
	// Field by field: a composite literal is built aside and copied in
	// whole, which made this loop most of the decode's time.
	for i := range out {
		s := &out[i]
		s.Metric = strs[metric[i]]
		s.Scope.Service = strs[service[i]]
		s.Scope.Version = strs[version[i]]
		s.Scope.Variant = strs[variant[i]]
		s.Value = math.Float64frombits(binary.LittleEndian.Uint64(values[8*i:]))
	}
	if tag == atOnce {
		at := instant(binary.LittleEndian.Uint64(times))
		for i := range out {
			out[i].At = at
		}
		return out, nil
	}
	for i := range out {
		out[i].At = instant(binary.LittleEndian.Uint64(times[8*i:]))
	}
	return out, nil
}

// SpansDecoder decodes span frames. Not safe for concurrent use. The
// returned slice is decoder-owned and valid until the next Decode.
type SpansDecoder struct {
	d     dec
	spans []tracing.Span
}

// spanRowWidth is the per-row column footprint at index width w, the
// error bitset aside: three u64 ids + three indexes + start i64 +
// duration i64.
func spanRowWidth(w int) int { return 3*8 + 3*w + 2*8 }

// Decode parses one spans frame.
func (sd *SpansDecoder) Decode(frame []byte) ([]tracing.Span, error) {
	body, err := header(frame, KindSpans)
	if err != nil {
		return nil, err
	}
	d := &sd.d
	d.body, d.off = body, 0
	if err := d.readDict(KindSpans); err != nil {
		return nil, err
	}
	// Row width is fractional because of the error bitset; validate the
	// fixed columns and the bitset tail together.
	n32, err := d.u32()
	if err != nil {
		return nil, err
	}
	n, w := int(n32), indexWidth(len(d.strs))
	if n32 > MaxRows || n*spanRowWidth(w)+(n+7)/8 != len(d.body)-d.off {
		return nil, errf("%d spans do not fit %d remaining bytes", n, len(d.body)-d.off)
	}
	ids := d.take(3 * 8 * n)
	idx, err := d.indexes(3, n, w)
	if err != nil {
		return nil, err
	}
	if cap(sd.spans) < n {
		sd.spans = make([]tracing.Span, n)
	}
	out := sd.spans[:n]
	service, version, endpoint := idx[:n], idx[n:2*n], idx[2*n:]
	starts, durations, errBits := d.take(8*n), d.take(8*n), d.take((n+7)/8)
	strs := d.strs
	for i := range out {
		sp := &out[i] // field by field, as in MetricsDecoder.Decode
		sp.TraceID = tracing.TraceID(binary.LittleEndian.Uint64(ids[8*i:]))
		sp.SpanID = tracing.SpanID(binary.LittleEndian.Uint64(ids[8*(n+i):]))
		sp.ParentID = tracing.SpanID(binary.LittleEndian.Uint64(ids[8*(2*n+i):]))
		sp.Service = strs[service[i]]
		sp.Version = strs[version[i]]
		sp.Endpoint = strs[endpoint[i]]
		sp.Start = instant(binary.LittleEndian.Uint64(starts[8*i:]))
		sp.Duration = time.Duration(binary.LittleEndian.Uint64(durations[8*i:]))
		sp.Err = errBits[i/8]&(1<<(i%8)) != 0
		sp.Variant = ""
	}
	return out, nil
}

// --- pools ---
//
// Ingestion handlers borrow codec state per request; returning it keeps
// the intern tables and scratch slices warm across requests, which is
// where the zero-alloc steady state comes from.

var (
	metricsEncPool = sync.Pool{New: func() any { return new(MetricsEncoder) }}
	metricsDecPool = sync.Pool{New: func() any { return new(MetricsDecoder) }}
	spansDecPool   = sync.Pool{New: func() any { return new(SpansDecoder) }}
)

// GetMetricsEncoder borrows a pooled encoder.
func GetMetricsEncoder() *MetricsEncoder { return metricsEncPool.Get().(*MetricsEncoder) }

// PutMetricsEncoder returns a pooled encoder.
func PutMetricsEncoder(e *MetricsEncoder) { metricsEncPool.Put(e) }

// GetMetricsDecoder borrows a pooled decoder.
func GetMetricsDecoder() *MetricsDecoder { return metricsDecPool.Get().(*MetricsDecoder) }

// PutMetricsDecoder returns a pooled decoder.
func PutMetricsDecoder(d *MetricsDecoder) { metricsDecPool.Put(d) }

// GetSpansDecoder borrows a pooled decoder.
func GetSpansDecoder() *SpansDecoder { return spansDecPool.Get().(*SpansDecoder) }

// PutSpansDecoder returns a pooled decoder.
func PutSpansDecoder(d *SpansDecoder) { spansDecPool.Put(d) }
