package metrics

import (
	"encoding/binary"
	"time"
)

// This file is the read side of a series' seconds ring — the ring every
// check window in this codebase is answered from.
//
// A second is sealed when the first sample of a later second arrives:
// from then on only a late write can change it. The series keeps its
// sealed seconds, in index order, in a view: a slice of 64-byte
// sealedSeconds (the bucket's summary plus where its sketch sits) and
// one byte slab holding, back to back, each second's occupied sketch
// bins at the narrowest count width that fits them. A 60 s p95 so
// streams ~4 KB of contiguous memory instead of visiting sixty 944-byte
// heap buckets.
//
// Both arrays are append-only. A new second trims the seconds that left
// the ring's reach off the front by reslicing and appends the finished
// second into the spare capacity; when either array runs out of spare
// the live part of both moves into fresh arrays (regrow). Nothing
// inside the length of a view a reader holds is ever written again, so
// a reader needs the series lock only to copy the view's two slice
// headers and the one second still being written:
//
//	lock; copy the view and the current second's summary (for a
//	quantile, add its bins); unlock; merge the window's sealed seconds
//	from the view, oldest first, then the copied current second.
//
// That is the order ring.reduce merges in, so the answer is the locked
// walk's bit for bit (TestSealedViewInvariant, FuzzSealedSketch). All
// nine aggregations take this path. The view and the current second are
// read under the lock that writes them, so they are consistent with
// each other by construction: there is no second copy of the current
// second, nothing to retry.
//
// A late write into a second already in the view marks it stale: reads
// take the locked ring walk until the next new second rebuilds the view
// from the ring. Deferring the rebuild keeps out-of-order batches (the
// steady state for replayed telemetry) allocation-free. The locked walk
// is otherwise the path only of what the view cannot answer: windows
// reaching past the seconds ring, which the minute and hour rings hold.

// sealedSecond is one finished second in the view: its summary and the
// place of its packed sketch in the view's slab. 64 bytes.
type sealedSecond struct {
	summary
	// The n bins from lo on are bins[off : off+n*width], each a
	// little-endian count of width bytes. n is 0 for a second without a
	// sketch (restored from a snapshot).
	off          uint32
	lo, n, width uint8
}

// sealedView is the read index over the sealed seconds: every second of
// the ring older than its newest that holds data, in index order. What
// lies inside the length of either slice is immutable, so a copy of the
// view taken under the series lock is read without it.
type sealedView struct {
	seconds []sealedSecond
	bins    []byte
}

// viewCap is the capacity an array of n live elements is given: a
// quarter spare, so a series with a full ring moves its view about once
// a minute, and no floor, so the spare of a store of young series stays
// a few elements each.
func viewCap(n int) int {
	return n + n/4 + 4
}

// packed is how b's sketch goes into a view: its occupied bins, from
// bin lo on, and the narrowest width — 1, 2 or 4 bytes — that holds the
// largest count. A bucket without a sketch packs to nothing.
func (b *bucket) packed() (lo uint8, counts []uint32, width uint8) {
	if b.binLo > b.binHi {
		return 0, nil, 0
	}
	counts = b.hist[b.binLo : int(b.binHi)+1]
	var bits uint32
	for _, c := range counts {
		bits |= c
	}
	switch {
	case bits < 1<<8:
		width = 1
	case bits < 1<<16:
		width = 2
	default:
		width = 4
	}
	return b.binLo, counts, width
}

// seal appends a finished second. Only spare capacity is written:
// nothing a reader's copy of the view reaches.
func (v *sealedView) seal(b *bucket) {
	lo, counts, width := b.packed()
	if need := len(counts) * int(width); len(v.seconds) == cap(v.seconds) || len(v.bins)+need > cap(v.bins) {
		v.regrow(need)
	}
	v.seconds = append(v.seconds, sealedSecond{
		summary: b.summary, off: uint32(len(v.bins)),
		lo: lo, n: uint8(len(counts)), width: width,
	})
	switch width {
	case 1:
		for _, c := range counts {
			v.bins = append(v.bins, byte(c))
		}
	case 2:
		for _, c := range counts {
			v.bins = binary.LittleEndian.AppendUint16(v.bins, uint16(c))
		}
	case 4:
		for _, c := range counts {
			v.bins = binary.LittleEndian.AppendUint32(v.bins, c)
		}
	}
}

// regrow moves the view into fresh arrays with room for one more second
// of need bytes and a quarter spare, leaving behind the slab bytes of
// seconds already trimmed. The old arrays stay as they are for whoever
// still reads them.
func (v *sealedView) regrow(need int) {
	base := uint32(len(v.bins))
	if len(v.seconds) > 0 {
		base = v.seconds[0].off
	}
	seconds := make([]sealedSecond, len(v.seconds), viewCap(len(v.seconds)+1))
	for i, sec := range v.seconds {
		sec.off -= base
		seconds[i] = sec
	}
	live := v.bins[base:]
	bins := make([]byte, len(live), viewCap(len(live)+need))
	copy(bins, live)
	v.seconds, v.bins = seconds, bins
}

// addBins adds sec's packed sketch into h.
func (v *sealedView) addBins(sec *sealedSecond, h *[histSize]uint64) {
	src, dst := v.bins[sec.off:], h[sec.lo:][:sec.n]
	switch sec.width {
	case 1:
		src = src[:len(dst)] // equal lengths: the loop checks no bounds
		for i, c := range src {
			dst[i] += uint64(c)
		}
	case 2:
		for i := range dst {
			dst[i] += uint64(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		for i := range dst {
			dst[i] += uint64(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}

// sealLocked keeps the view in step with a sample about to land in
// second sec, which is not the ring's newest. Caller holds the series
// mutex, and calls before the ring absorbs the sample: the ring's
// newest bucket is then the second that just finished, complete.
func (s *series) sealLocked(sec int64) {
	r := &s.tiers[tierSecond]
	if sec < r.latest {
		// A late write. One the ring still reaches changes a second
		// already in the view; an older one reaches only the coarser rings.
		if sec >= r.oldest() {
			s.stale = true
		}
		return
	}
	v := &s.sealed
	oldest := sec - secondSlots + 1 // the ring's reach once sec is its newest
	from := max(r.latest, oldest)   // the one second the view does not hold yet
	if s.stale {
		// Rebuild: every second the ring holds, in arrays sized to them.
		s.stale = false
		from = max(r.oldest(), oldest)
		var n, size int
		r.walk(from, r.latest, func(b *bucket) {
			_, counts, width := b.packed()
			n, size = n+1, size+len(counts)*int(width)
		})
		*v = sealedView{seconds: make([]sealedSecond, 0, viewCap(n)), bins: make([]byte, 0, viewCap(size))}
	}
	for len(v.seconds) > 0 && v.seconds[0].idx < oldest {
		v.seconds = v.seconds[1:]
	}
	r.walk(from, r.latest, v.seal)
}

// reduce merges the series' buckets that overlap [since, ∞) into a,
// oldest first, from the finest ring that covers the window.
func (s *series) reduce(since time.Time, a *accumulator) {
	s.mu.Lock()
	r := &s.tiers[tierSecond]
	if s.stale || !r.covers(since, s.earliest) {
		r = &s.tiers[tierHour] // a window older than every ring gets what the coarsest retains
		for i := range s.tiers {
			if s.tiers[i].covers(since, s.earliest) {
				r = &s.tiers[i]
				break
			}
		}
		r.reduce(since, a)
		s.mu.Unlock()
		return
	}
	// At width 1 the first overlapping index is the window's own start
	// second, and everything in the view is inside the ring's reach.
	from := since.Unix()
	v, cur := s.sealed, r.cur.summary
	useCur := cur.idx >= from
	if useCur && a.hist != nil {
		r.cur.addBins(a.hist) // integer adds: their order is immaterial
	}
	s.mu.Unlock()

	i := len(v.seconds)
	for i > 0 && v.seconds[i-1].idx >= from {
		i--
	}
	for ; i < len(v.seconds); i++ {
		sec := &v.seconds[i]
		a.merge(&sec.summary)
		if a.hist != nil {
			v.addBins(sec, a.hist)
		}
	}
	if useCur {
		a.merge(&cur)
	}
}
