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
// # Frame layout (version 1)
//
//	offset  size  field
//	0       2     magic "CX"
//	2       1     format version (1)
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
//	metrics columns (kind 1):
//	  metric   [n]u32  dictionary index
//	  service  [n]u32  dictionary index
//	  version  [n]u32  dictionary index
//	  variant  [n]u32  dictionary index ("" allowed)
//	  value    [n]u64  IEEE-754 bits
//	  at       [n]i64  UnixNano; 0 = unset (receiver stamps arrival)
//
//	span columns (kind 2):
//	  traceId  [n]u64
//	  spanId   [n]u64
//	  parentId [n]u64  0 = root span
//	  service  [n]u32  dictionary index
//	  version  [n]u32  dictionary index
//	  endpoint [n]u32  dictionary index
//	  start    [n]i64  UnixNano; 0 = unset
//	  duration [n]i64  nanoseconds
//	  err      bitset, ceil(n/8) bytes, LSB-first
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

	"contexp/internal/metrics"
	"contexp/internal/tracing"
)

// ContentType is the negotiated media type of binary batch frames.
const ContentType = "application/x-contexp-batch"

// Version is the format version this package reads and writes.
const Version = 1

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

// enc is the shared encoder core: a grow-only frame buffer, a string
// dictionary reset per batch, and the index scratch of the columnar
// (metrics and spans) encoders.
type enc struct {
	buf  []byte
	idx  map[string]uint32
	strs []string
	// dictBytes is the serialized size of strs (u32 length + bytes each),
	// kept by intern so dict can size its write before making it.
	dictBytes int
	// cols holds a batch's string columns as dictionary indexes, column
	// after column in wire order. It is filled in the one pass that
	// interns the batch, so the columns are written from it rather than
	// from a second dictionary lookup per cell.
	cols []uint32
}

func (e *enc) reset(kind byte) {
	e.buf = append(e.buf[:0], 'C', 'X', Version, kind, 0, 0, 0, 0)
	if e.idx == nil {
		e.idx = make(map[string]uint32)
	} else {
		clear(e.idx)
	}
	e.strs = e.strs[:0]
	e.dictBytes = 0
}

// intern returns the dictionary index of s, adding it on first use.
func (e *enc) intern(s string) uint32 {
	if i, ok := e.idx[s]; ok {
		return i
	}
	i := uint32(len(e.strs))
	e.idx[s] = i
	e.strs = append(e.strs, s)
	e.dictBytes += 4 + len(s)
	return i
}

// strCols returns the index scratch for k string columns of n rows,
// one []uint32 of n per column.
func (e *enc) strCols(k, n int) []uint32 {
	if cap(e.cols) < k*n {
		e.cols = make([]uint32, k*n)
	}
	return e.cols[:k*n]
}

// colMemo is one string column's previous cell and its index.
type colMemo struct {
	prev string
	idx  uint32
	set  bool
}

// col resolves one cell of a string column: the previous row's index
// when the value repeats it (sorted and run-shaped batches, constant
// columns such as an unused variant), the dictionary's otherwise.
func (e *enc) col(m *colMemo, s string) uint32 {
	if !m.set || s != m.prev {
		m.prev, m.idx, m.set = s, e.intern(s), true
	}
	return m.idx
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

// putU32s writes vs as consecutive little-endian u32s at the front of
// out and returns the rest of out.
func putU32s(out []byte, vs []uint32) []byte {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out[4*len(vs):]
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

// MetricsEncoder encodes metric sample batches. Not safe for concurrent
// use; the returned frame is valid until the next Encode.
type MetricsEncoder struct{ e enc }

// Encode renders samples as one binary frame.
func (m *MetricsEncoder) Encode(samples []metrics.Sample) []byte {
	e := &m.e
	e.reset(KindMetrics)
	// The dictionary serializes before the columns that index it, so the
	// batch is interned first: one pass, row by row (which fixes the
	// dictionary's order), each cell's index kept in the scratch the
	// columns are then written from.
	n := len(samples)
	cols := e.strCols(4, n)
	metric, service, version, variant := cols[:n], cols[n:2*n], cols[2*n:3*n], cols[3*n:]
	var mm, ms, mv, mr colMemo
	for i := range samples {
		s := &samples[i]
		metric[i] = e.col(&mm, s.Metric)
		service[i] = e.col(&ms, s.Scope.Service)
		version[i] = e.col(&mv, s.Scope.Version)
		variant[i] = e.col(&mr, s.Scope.Variant)
	}
	e.dict()
	out := e.extend(4 + n*metricRowWidth)
	binary.LittleEndian.PutUint32(out, uint32(n))
	out = putU32s(out[4:], cols)
	for i := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(samples[i].Value))
	}
	out = out[8*n:]
	for i := range samples {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(unixNano(samples[i].At)))
	}
	return e.finish()
}

// SpansEncoder encodes span batches. Not safe for concurrent use; the
// returned frame is valid until the next Encode.
type SpansEncoder struct{ e enc }

// Encode renders spans as one binary frame. The span Variant tag is not
// carried (parity with the JSON ingestion form, which also omits it).
func (se *SpansEncoder) Encode(spans []tracing.Span) []byte {
	e := &se.e
	e.reset(KindSpans)
	// Interned in one pass, as in MetricsEncoder.Encode.
	n := len(spans)
	cols := e.strCols(3, n)
	service, version, endpoint := cols[:n], cols[n:2*n], cols[2*n:]
	var ms, mv, me colMemo
	for i := range spans {
		s := &spans[i]
		service[i] = e.col(&ms, s.Service)
		version[i] = e.col(&mv, s.Version)
		endpoint[i] = e.col(&me, s.Endpoint)
	}
	e.dict()
	out := e.extend(4 + n*spanRowWidth + (n+7)/8)
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
	out = putU32s(out[8*n:], cols)
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

// maxInterned bounds a decoder's intern table. Decoders are pooled and
// live as long as the process, so without a bound an emitter that sends
// never-repeating strings (request IDs as label values) would grow
// every one of them forever. A table that fills is dropped and starts
// again: a fleet's working set of names is far smaller, so steady-state
// decoding still allocates nothing.
const maxInterned = 1 << 14

// dec is the shared decoder core. The intern table persists across
// frames: once every distinct string has been seen, decoding allocates
// nothing.
type dec struct {
	body   []byte
	off    int
	intern map[string]string
	strs   []string // per-frame dictionary, resolved to interned strings
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

// readDict parses the string dictionary, interning every entry.
func (d *dec) readDict() error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	if n > MaxStrings || int(n)*4 > len(d.body)-d.off {
		return errf("dictionary declares %d strings in %d remaining bytes", n, len(d.body)-d.off)
	}
	if d.intern == nil {
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

func (d *dec) rows(width int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > MaxRows || int(n)*width != len(d.body)-d.off {
		return 0, errf("%d rows of %d column bytes do not fit %d remaining bytes", n, width, len(d.body)-d.off)
	}
	return int(n), nil
}

func (d *dec) str(i uint32) (string, error) {
	if int(i) >= len(d.strs) {
		return "", errf("string index %d out of dictionary range %d", i, len(d.strs))
	}
	return d.strs[i], nil
}

// MetricsDecoder decodes metric sample frames. Not safe for concurrent
// use. The returned slice is decoder-owned and valid until the next
// Decode — callers hand it straight to Store.RecordBatch.
type MetricsDecoder struct {
	d       dec
	samples []metrics.Sample
}

// metricRowWidth is the fixed per-row column footprint: four u32
// indexes + value u64 + at i64.
const metricRowWidth = 4*4 + 8 + 8

// Decode parses one metrics frame.
func (md *MetricsDecoder) Decode(frame []byte) ([]metrics.Sample, error) {
	body, err := header(frame, KindMetrics)
	if err != nil {
		return nil, err
	}
	d := &md.d
	d.body, d.off = body, 0
	if err := d.readDict(); err != nil {
		return nil, err
	}
	n, err := d.rows(metricRowWidth)
	if err != nil {
		return nil, err
	}
	if cap(md.samples) < n {
		md.samples = make([]metrics.Sample, n)
	}
	out := md.samples[:n]
	// Columns decode in wire order; every index is bounds-checked
	// against the dictionary.
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Metric, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Scope.Service, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Scope.Version, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Scope.Variant, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		bits, _ := d.u64()
		out[i].Value = math.Float64frombits(bits)
	}
	for i := 0; i < n; i++ {
		ns, _ := d.u64()
		if ns == 0 {
			out[i].At = time.Time{}
		} else {
			out[i].At = time.Unix(0, int64(ns))
		}
	}
	return out, nil
}

// SpansDecoder decodes span frames. Not safe for concurrent use. The
// returned slice is decoder-owned and valid until the next Decode.
type SpansDecoder struct {
	d     dec
	spans []tracing.Span
}

// spanRowWidth is the fixed per-row column footprint, the error bitset
// aside: three u64 ids + three u32 indexes + start i64 + duration i64.
const spanRowWidth = 3*8 + 3*4 + 2*8

// Decode parses one spans frame.
func (sd *SpansDecoder) Decode(frame []byte) ([]tracing.Span, error) {
	body, err := header(frame, KindSpans)
	if err != nil {
		return nil, err
	}
	d := &sd.d
	d.body, d.off = body, 0
	if err := d.readDict(); err != nil {
		return nil, err
	}
	// Row width is fractional because of the error bitset; validate the
	// fixed columns here and the bitset tail explicitly below.
	n32, err := d.u32()
	if err != nil {
		return nil, err
	}
	n := int(n32)
	if n32 > MaxRows || n*spanRowWidth+(n+7)/8 != len(d.body)-d.off {
		return nil, errf("%d spans do not fit %d remaining bytes", n, len(d.body)-d.off)
	}
	if cap(sd.spans) < n {
		sd.spans = make([]tracing.Span, n)
	}
	out := sd.spans[:n]
	for i := 0; i < n; i++ {
		v, _ := d.u64()
		out[i].TraceID = tracing.TraceID(v)
	}
	for i := 0; i < n; i++ {
		v, _ := d.u64()
		out[i].SpanID = tracing.SpanID(v)
	}
	for i := 0; i < n; i++ {
		v, _ := d.u64()
		out[i].ParentID = tracing.SpanID(v)
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Service, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Version, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		idx, _ := d.u32()
		if out[i].Endpoint, err = d.str(idx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		ns, _ := d.u64()
		if ns == 0 {
			out[i].Start = time.Time{}
		} else {
			out[i].Start = time.Unix(0, int64(ns))
		}
	}
	for i := 0; i < n; i++ {
		v, _ := d.u64()
		out[i].Duration = time.Duration(v)
	}
	for i := 0; i < n; i++ {
		out[i].Err = d.body[d.off+i/8]&(1<<(i%8)) != 0
		out[i].Variant = ""
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
	spansEncPool   = sync.Pool{New: func() any { return new(SpansEncoder) }}
	metricsDecPool = sync.Pool{New: func() any { return new(MetricsDecoder) }}
	spansDecPool   = sync.Pool{New: func() any { return new(SpansDecoder) }}
)

// GetMetricsEncoder borrows a pooled encoder.
func GetMetricsEncoder() *MetricsEncoder { return metricsEncPool.Get().(*MetricsEncoder) }

// PutMetricsEncoder returns a pooled encoder.
func PutMetricsEncoder(e *MetricsEncoder) { metricsEncPool.Put(e) }

// GetSpansEncoder borrows a pooled encoder.
func GetSpansEncoder() *SpansEncoder { return spansEncPool.Get().(*SpansEncoder) }

// PutSpansEncoder returns a pooled encoder.
func PutSpansEncoder(e *SpansEncoder) { spansEncPool.Put(e) }

// GetMetricsDecoder borrows a pooled decoder.
func GetMetricsDecoder() *MetricsDecoder { return metricsDecPool.Get().(*MetricsDecoder) }

// PutMetricsDecoder returns a pooled decoder.
func PutMetricsDecoder(d *MetricsDecoder) { metricsDecPool.Put(d) }

// GetSpansDecoder borrows a pooled decoder.
func GetSpansDecoder() *SpansDecoder { return spansDecPool.Get().(*SpansDecoder) }

// PutSpansDecoder returns a pooled decoder.
func PutSpansDecoder(d *SpansDecoder) { spansDecPool.Put(d) }
