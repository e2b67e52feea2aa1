package wire

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"sync"

	"contexp/internal/expmodel"
	"contexp/internal/router"
)

// This file extends the batch codec to the control plane's distribution
// path: full routing snapshots (kind 3), version-keyed deltas (kind 4),
// and heartbeats (kind 5) — the three frame kinds a contexpd streams to
// edge agents over GET /v1/routing/watch. The framing, dictionary, and
// hostile-input discipline are exactly the telemetry codec's: bounded
// pre-allocation before any count is trusted, pooled encoders/decoders.
// Only the strings differ: a routing decoder copies them out of the
// frame and keeps none (see dec.readDict), so an agent holds what its
// table holds.
//
// Snapshot body (kind 3), after the shared dictionary:
//
//	version   u64
//	routes    u32 count, then per route (see below)
//
// Delta body (kind 4), after the dictionary:
//
//	from      u64  version the delta chains onto
//	to        u64  version after applying
//	upserts   u32 count, then whole routes
//	removes   u32 count, then u32 dictionary index per service
//
// Route layout (variable width):
//
//	service   u32 dictionary index
//	salt      u32 dictionary index
//	rules     u32 count, then per rule:
//	            name u32, matcher kind u8, fields, version u32
//	            kind 1 = group:  group u32
//	            kind 2 = header: key u32, value u32
//	backends  u32 count, then per backend: version u32, weight u64 bits
//	mirrors   u32 count, then u32 index per mirror
//
// Heartbeat body (kind 5): a bare u64 snapshot version. Heartbeats keep
// the watch stream's lease alive through idle periods; an agent that
// stops receiving them (partition, dead control plane) fails static.

// Additional batch kinds (1 and 2 are the telemetry kinds in wire.go).
const (
	KindSnapshot  = 3
	KindDelta     = 4
	KindHeartbeat = 5
)

// StreamContentType is the media type of a routing watch stream: a
// sequence of self-delimiting frames (snapshot, deltas, heartbeats).
const StreamContentType = "application/x-contexp-stream"

// EpochHeader names, on a watch response, the control-plane process
// that serves it. Table versions start over when that process does, so
// an agent sends the epoch back (query parameter epoch) with the
// version it holds, and a version from another epoch is not trusted.
const EpochHeader = "X-Contexp-Epoch"

// Matcher kinds on the wire. Only the two built-in matcher types
// serialize; a custom Matcher implementation is an encode error, never
// a silent drop.
const (
	matcherGroup  = 1
	matcherHeader = 2
)

// Per-frame structural bounds, same role as MaxStrings/MaxRows: a
// hostile count cannot demand a large allocation before the remaining
// byte budget vouches for it.
const (
	MaxRoutes        = 1 << 16
	MaxRouteElements = 1 << 12 // rules, backends, or mirrors per route
)

// Minimum wire footprint per counted element, used to sanity-check
// counts against remaining bytes before allocating.
const (
	minRouteBytes   = 5 * 4 // service, salt, three zero counts
	minRuleBytes    = 4 + 1 + 4 + 4
	minBackendBytes = 4 + 8
	minMirrorBytes  = 4
	minRemoveBytes  = 4
)

// --- encoding ---

func (e *enc) u8(v byte) { e.buf = append(e.buf, v) }

// internRoute stages every string of r into the dictionary.
func (e *enc) internRoute(r *router.Route) error {
	e.intern(r.Service)
	e.intern(r.StickySalt)
	for i := range r.Rules {
		e.intern(r.Rules[i].Name)
		e.intern(r.Rules[i].Version)
		switch m := r.Rules[i].Match.(type) {
		case router.GroupMatcher:
			e.intern(string(m.Group))
		case router.HeaderMatcher:
			e.intern(m.Key)
			e.intern(m.Value)
		default:
			return errf("rule %q of %q: matcher %T is not wire-encodable", r.Rules[i].Name, r.Service, r.Rules[i].Match)
		}
	}
	for i := range r.Backends {
		e.intern(r.Backends[i].Version)
	}
	for _, m := range r.Mirrors {
		e.intern(m)
	}
	return nil
}

// route writes one route's columns; internRoute must have run first.
func (e *enc) route(r *router.Route) {
	e.u32(e.idx[r.Service])
	e.u32(e.idx[r.StickySalt])
	e.u32(uint32(len(r.Rules)))
	for i := range r.Rules {
		e.u32(e.idx[r.Rules[i].Name])
		switch m := r.Rules[i].Match.(type) {
		case router.GroupMatcher:
			e.u8(matcherGroup)
			e.u32(e.idx[string(m.Group)])
		case router.HeaderMatcher:
			e.u8(matcherHeader)
			e.u32(e.idx[m.Key])
			e.u32(e.idx[m.Value])
		}
		e.u32(e.idx[r.Rules[i].Version])
	}
	e.u32(uint32(len(r.Backends)))
	for i := range r.Backends {
		e.u32(e.idx[r.Backends[i].Version])
		e.u64(math.Float64bits(r.Backends[i].Weight))
	}
	e.u32(uint32(len(r.Mirrors)))
	for _, m := range r.Mirrors {
		e.u32(e.idx[m])
	}
}

// SnapshotEncoder encodes full routing snapshots. Not safe for
// concurrent use; the returned frame is valid until the next Encode.
type SnapshotEncoder struct{ e enc }

// Encode renders snap as one binary frame. Routes containing a custom
// Matcher implementation fail the whole frame.
func (se *SnapshotEncoder) Encode(snap router.TableSnapshot) ([]byte, error) {
	e := &se.e
	e.reset(KindSnapshot)
	for i := range snap.Routes {
		if err := e.internRoute(&snap.Routes[i]); err != nil {
			return nil, err
		}
	}
	e.dict()
	e.u64(snap.Version)
	e.u32(uint32(len(snap.Routes)))
	for i := range snap.Routes {
		e.route(&snap.Routes[i])
	}
	return e.finish(), nil
}

// DeltaEncoder encodes version-keyed deltas. Not safe for concurrent
// use; the returned frame is valid until the next Encode.
type DeltaEncoder struct{ e enc }

// Encode renders d as one binary frame.
func (de *DeltaEncoder) Encode(d router.TableDelta) ([]byte, error) {
	e := &de.e
	e.reset(KindDelta)
	for i := range d.Upserts {
		if err := e.internRoute(&d.Upserts[i]); err != nil {
			return nil, err
		}
	}
	for _, svc := range d.Removes {
		e.intern(svc)
	}
	e.dict()
	e.u64(d.FromVersion)
	e.u64(d.ToVersion)
	e.u32(uint32(len(d.Upserts)))
	for i := range d.Upserts {
		e.route(&d.Upserts[i])
	}
	e.u32(uint32(len(d.Removes)))
	for _, svc := range d.Removes {
		e.u32(e.idx[svc])
	}
	return e.finish(), nil
}

// EncodeHeartbeat renders a heartbeat frame carrying the control
// plane's current snapshot version. The frame is freshly allocated (16
// bytes); heartbeats are rare enough that pooling would be noise.
func EncodeHeartbeat(version uint64) []byte {
	frame := make([]byte, HeaderSize+8)
	frame[0], frame[1], frame[2], frame[3] = 'C', 'X', Version, KindHeartbeat
	binary.LittleEndian.PutUint32(frame[4:8], 8)
	binary.LittleEndian.PutUint64(frame[HeaderSize:], version)
	return frame
}

// DecodeHeartbeat parses a heartbeat frame.
func DecodeHeartbeat(frame []byte) (uint64, error) {
	body, err := header(frame, KindHeartbeat)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, errf("heartbeat body is %d bytes, want 8", len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

// --- decoding ---

func (d *dec) u8() (byte, error) {
	if d.off+1 > len(d.body) {
		return 0, errf("truncated frame: need 1 byte at offset %d of %d", d.off, len(d.body))
	}
	v := d.body[d.off]
	d.off++
	return v, nil
}

// count reads an element count and vets it against a hard cap and the
// bytes actually remaining (minWidth per element) before the caller
// allocates anything proportional to it.
func (d *dec) count(max uint32, minWidth int, what string) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > max || int(n)*minWidth > len(d.body)-d.off {
		return 0, errf("%s declares %d elements in %d remaining bytes", what, n, len(d.body)-d.off)
	}
	return int(n), nil
}

// strIdx reads one dictionary index and resolves it.
func (d *dec) strIdx() (string, error) {
	i, err := d.u32()
	if err != nil {
		return "", err
	}
	return d.str(i)
}

// route decodes one route. Routes and their strings are freshly
// allocated: they outlive the decoder inside the receiving table.
func (d *dec) route() (router.Route, error) {
	var r router.Route
	var err error
	if r.Service, err = d.strIdx(); err != nil {
		return r, err
	}
	if r.StickySalt, err = d.strIdx(); err != nil {
		return r, err
	}
	nRules, err := d.count(MaxRouteElements, minRuleBytes, "rules")
	if err != nil {
		return r, err
	}
	if nRules > 0 {
		r.Rules = make([]router.Rule, nRules)
	}
	for i := 0; i < nRules; i++ {
		if r.Rules[i].Name, err = d.strIdx(); err != nil {
			return r, err
		}
		kind, err := d.u8()
		if err != nil {
			return r, err
		}
		switch kind {
		case matcherGroup:
			g, err := d.strIdx()
			if err != nil {
				return r, err
			}
			r.Rules[i].Match = router.GroupMatcher{Group: expmodel.UserGroup(g)}
		case matcherHeader:
			key, err := d.strIdx()
			if err != nil {
				return r, err
			}
			val, err := d.strIdx()
			if err != nil {
				return r, err
			}
			r.Rules[i].Match = router.HeaderMatcher{Key: key, Value: val}
		default:
			return r, errf("rule %d of %q: unknown matcher kind %d", i, r.Service, kind)
		}
		if r.Rules[i].Version, err = d.strIdx(); err != nil {
			return r, err
		}
	}
	nBackends, err := d.count(MaxRouteElements, minBackendBytes, "backends")
	if err != nil {
		return r, err
	}
	if nBackends > 0 {
		r.Backends = make([]router.Backend, nBackends)
	}
	for i := 0; i < nBackends; i++ {
		if r.Backends[i].Version, err = d.strIdx(); err != nil {
			return r, err
		}
		bits, err := d.u64()
		if err != nil {
			return r, err
		}
		w := math.Float64frombits(bits)
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return r, errf("backend %d of %q: weight %v is not a finite non-negative number", i, r.Service, w)
		}
		r.Backends[i].Weight = w
	}
	nMirrors, err := d.count(MaxRouteElements, minMirrorBytes, "mirrors")
	if err != nil {
		return r, err
	}
	if nMirrors > 0 {
		r.Mirrors = make([]string, nMirrors)
	}
	for i := 0; i < nMirrors; i++ {
		if r.Mirrors[i], err = d.strIdx(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// trailing rejects frames with unconsumed body bytes, so every accepted
// frame has exactly one byte-level representation.
func (d *dec) trailing() error {
	if d.off != len(d.body) {
		return errf("%d trailing bytes after frame content", len(d.body)-d.off)
	}
	return nil
}

// SnapshotDecoder decodes full-snapshot frames. Not safe for concurrent
// use. The returned snapshot is freshly allocated and the caller's to
// keep.
type SnapshotDecoder struct{ d dec }

// Decode parses one snapshot frame.
func (sd *SnapshotDecoder) Decode(frame []byte) (router.TableSnapshot, error) {
	var snap router.TableSnapshot
	body, err := header(frame, KindSnapshot)
	if err != nil {
		return snap, err
	}
	d := &sd.d
	d.body, d.off = body, 0
	if err := d.readDict(KindSnapshot); err != nil {
		return snap, err
	}
	if snap.Version, err = d.u64(); err != nil {
		return snap, err
	}
	n, err := d.count(MaxRoutes, minRouteBytes, "routes")
	if err != nil {
		return snap, err
	}
	if n > 0 {
		snap.Routes = make([]router.Route, 0, n)
	}
	for i := 0; i < n; i++ {
		r, err := d.route()
		if err != nil {
			return router.TableSnapshot{}, err
		}
		snap.Routes = append(snap.Routes, r)
	}
	if err := d.trailing(); err != nil {
		return router.TableSnapshot{}, err
	}
	return snap, nil
}

// DeltaDecoder decodes delta frames. Not safe for concurrent use. The
// returned delta is freshly allocated and the caller's to keep.
type DeltaDecoder struct{ d dec }

// Decode parses one delta frame.
func (dd *DeltaDecoder) Decode(frame []byte) (router.TableDelta, error) {
	var delta router.TableDelta
	body, err := header(frame, KindDelta)
	if err != nil {
		return delta, err
	}
	d := &dd.d
	d.body, d.off = body, 0
	if err := d.readDict(KindDelta); err != nil {
		return delta, err
	}
	if delta.FromVersion, err = d.u64(); err != nil {
		return delta, err
	}
	if delta.ToVersion, err = d.u64(); err != nil {
		return delta, err
	}
	if delta.ToVersion <= delta.FromVersion {
		return router.TableDelta{}, errf("delta from version %d to %d does not move forward", delta.FromVersion, delta.ToVersion)
	}
	nUp, err := d.count(MaxRoutes, minRouteBytes, "upserts")
	if err != nil {
		return delta, err
	}
	if nUp > 0 {
		delta.Upserts = make([]router.Route, 0, nUp)
	}
	for i := 0; i < nUp; i++ {
		r, err := d.route()
		if err != nil {
			return router.TableDelta{}, err
		}
		delta.Upserts = append(delta.Upserts, r)
	}
	nRm, err := d.count(MaxRoutes, minRemoveBytes, "removes")
	if err != nil {
		return router.TableDelta{}, err
	}
	if nRm > 0 {
		delta.Removes = make([]string, nRm)
	}
	for i := 0; i < nRm; i++ {
		if delta.Removes[i], err = d.strIdx(); err != nil {
			return router.TableDelta{}, err
		}
	}
	if err := d.trailing(); err != nil {
		return router.TableDelta{}, err
	}
	return delta, nil
}

// --- stream reading ---

// ReadFrame reads one self-delimiting frame (any kind) from r: the
// 8-byte header, then exactly the declared body, each with one
// io.ReadFull. r need not buffer; a watch stream's HTTP response body,
// which its transport already reads through a buffer, is passed as it
// is. The frame is read into buf, whose capacity is reused across
// calls; a buf too small for the frame is grown to fit it, so a
// stream's buffer is as large as its largest frame so far, never a
// fixed size (a nil buf takes the 8-byte header first). The whole frame,
// header included, is returned. maxBody bounds a hostile length prefix
// before anything is allocated for the body. io.EOF is returned
// verbatim on a clean end-of-stream boundary; a stream cut inside a
// frame is an error.
func ReadFrame(r io.Reader, buf []byte, maxBody int) ([]byte, error) {
	buf = slices.Grow(buf[:0], HeaderSize)[:HeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errf("reading frame header: %v", err)
	}
	if buf[0] != 'C' || buf[1] != 'X' {
		return nil, errf("bad magic %q", buf[:2])
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[4:8]))
	if bodyLen > maxBody {
		de := errf("frame body %d bytes exceeds limit %d", bodyLen, maxBody).(*DecodeError)
		de.tooLarge = true
		return nil, de
	}
	buf = slices.Grow(buf, bodyLen)[:HeaderSize+bodyLen]
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		return nil, errf("reading frame body of length %d: %v", bodyLen, err)
	}
	return buf, nil
}

// --- pools ---

var (
	snapshotEncPool = sync.Pool{New: func() any { return new(SnapshotEncoder) }}
	snapshotDecPool = sync.Pool{New: func() any { return new(SnapshotDecoder) }}
	deltaEncPool    = sync.Pool{New: func() any { return new(DeltaEncoder) }}
	deltaDecPool    = sync.Pool{New: func() any { return new(DeltaDecoder) }}
)

// GetSnapshotEncoder borrows a pooled encoder.
func GetSnapshotEncoder() *SnapshotEncoder { return snapshotEncPool.Get().(*SnapshotEncoder) }

// PutSnapshotEncoder returns a pooled encoder.
func PutSnapshotEncoder(e *SnapshotEncoder) { snapshotEncPool.Put(e) }

// GetSnapshotDecoder borrows a pooled decoder.
func GetSnapshotDecoder() *SnapshotDecoder { return snapshotDecPool.Get().(*SnapshotDecoder) }

// PutSnapshotDecoder returns a pooled decoder.
func PutSnapshotDecoder(d *SnapshotDecoder) { snapshotDecPool.Put(d) }

// GetDeltaEncoder borrows a pooled encoder.
func GetDeltaEncoder() *DeltaEncoder { return deltaEncPool.Get().(*DeltaEncoder) }

// PutDeltaEncoder returns a pooled encoder.
func PutDeltaEncoder(e *DeltaEncoder) { deltaEncPool.Put(e) }

// GetDeltaDecoder borrows a pooled decoder.
func GetDeltaDecoder() *DeltaDecoder { return deltaDecPool.Get().(*DeltaDecoder) }

// PutDeltaDecoder returns a pooled decoder.
func PutDeltaDecoder(d *DeltaDecoder) { deltaDecPool.Put(d) }
