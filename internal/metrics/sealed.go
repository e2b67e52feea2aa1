package metrics

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"time"
)

// This file is the seconds tier of a series — the tier every check
// window in this codebase is answered from — and its read side.
//
// Only the newest liveSeconds seconds are dense buckets (ring.go), where
// a write up to three seconds late lands like an in-order one. A second
// that falls out of that ring is sealed into the series' view, the only
// store of the older seconds back to the tier's reach of secondSlots: a
// slice of 64-byte sealedSeconds (the bucket's summary plus where its
// sketch sits), in index order, and one byte slab holding, back to back,
// each second's occupied sketch bins at the narrowest count width that
// fits them. A finished second so costs ~80 bytes, not a 944-byte
// bucket, and a 60 s p95 streams ~4 KB of contiguous memory.
//
// Both arrays are append-only. A new second trims the seconds that left
// the tier's reach off the front by reslicing and appends those leaving
// the live ring into the spare capacity; when either array runs out of
// spare the live part of both moves into fresh arrays (regrow). Nothing
// inside the length of a view a reader holds is ever written again, so
// a reader needs the series lock only to copy the view's two slice
// headers and the live seconds:
//
//	lock; copy the view and the live summaries (for a quantile, add
//	their bins); unlock; merge the window's sealed seconds from the
//	view, oldest first, then the copied live seconds.
//
// That is the order a walk of one 256-bucket ring would merge in, so the
// answer is that walk's bit for bit (TestSealedViewInvariant,
// FuzzSealedSketch). All nine aggregations take this path; view and live
// seconds are read under the lock that writes them: nothing to retry.
//
// A write older than the live seconds but inside the tier's reach is
// only appended to the series' late buffer; the next read or new second
// folds the buffer into the view (foldLocked). Out-of-order batches (the
// steady state for replayed telemetry) so cost an append per sample and
// one view copy per fold. The locked ring walk is the path only of
// windows reaching past the seconds tier, which the coarser rings hold.

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

// sealedView holds the sealed seconds: every second inside the tier's
// reach, older than the live ring, that holds data, in index order. What
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

// addBins adds sec's packed sketch into h: a query's merged sketch, or
// the bins of a bucket a fold unpacks the second into.
func addBins[T uint32 | uint64](v *sealedView, sec *sealedSecond, h *[histSize]T) {
	src, dst := v.bins[sec.off:], h[sec.lo:][:sec.n]
	switch sec.width {
	case 1:
		src = src[:len(dst)] // equal lengths: the loop checks no bounds
		for i, c := range src {
			dst[i] += T(c)
		}
	case 2:
		for i := range dst {
			dst[i] += T(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		for i := range dst {
			dst[i] += T(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}

// unpack is seal's inverse: sec's summary and sketch into b, which the
// caller has reset.
func (v *sealedView) unpack(sec *sealedSecond, b *bucket) {
	b.summary = sec.summary
	if sec.n > 0 {
		b.binLo, b.binHi = sec.lo, sec.lo+sec.n-1
	}
	addBins(v, sec, &b.hist)
}

// lateSample is a write into a sealed second, waiting for the next fold.
type lateSample struct {
	sec, ns int64
	v       float64
}

// sealLocked keeps the seconds tier in step with a sample about to land
// in second t.sec, which is not the live ring's newest. Caller holds the
// series mutex, and calls before the ring absorbs the sample: a new
// second seals the buckets it pushes out of the live ring before the
// ring recycles their slots, and trims the view to the tier's reach.
func (s *series) sealLocked(t *stamp, v float64) {
	r := &s.tiers[tierSecond]
	switch sec := t.sec; {
	case sec > r.latest:
		s.foldLocked()
		view, oldest := &s.sealed, sec-secondSlots+1
		for len(view.seconds) > 0 && view.seconds[0].idx < oldest {
			view.seconds = view.seconds[1:]
		}
		r.walk(oldest, min(r.latest, sec-liveSeconds), view.seal)
	case sec >= r.oldest(): // late, into a second still dense
	case sec > r.latest-secondSlots: // late, into a sealed one: the next fold's
		s.late = append(s.late, lateSample{sec, t.ns, v})
		s.lateWrites++
	default:
		s.lateDropped++
	}
}

// foldLocked merges the late buffer into the view: one stable sort by
// second, one merge-join into fresh arrays (the old ones stay as they
// are for readers still holding them), each touched second unpacked,
// given its samples in arrival order — the adds a dense bucket would
// have made, so the same sum — and sealed again. Every buffered second
// is inside the tier's reach: the fold runs before the reach moves.
func (s *series) foldLocked() {
	if len(s.late) == 0 {
		return
	}
	s.lateFolds++
	slices.SortStableFunc(s.late, func(a, b lateSample) int { return cmp.Compare(a.sec, b.sec) })
	old := s.sealed
	v := sealedView{
		seconds: make([]sealedSecond, 0, viewCap(min(len(old.seconds)+len(s.late), secondSlots))),
		bins:    make([]byte, 0, viewCap(len(old.bins))),
	}
	var touched bucket
	i := 0
	keep := func(until int64) { // the seconds before until are copied as they are
		for ; i < len(old.seconds) && old.seconds[i].idx < until; i++ {
			sec := old.seconds[i]
			bins := old.bins[sec.off:][:int(sec.n)*int(sec.width)]
			sec.off = uint32(len(v.bins))
			// Nobody holds v yet: append may move it.
			v.seconds, v.bins = append(v.seconds, sec), append(v.bins, bins...)
		}
	}
	for j := 0; j < len(s.late); {
		sec := s.late[j].sec
		keep(sec)
		touched.reset(sec)
		if i < len(old.seconds) && old.seconds[i].idx == sec {
			old.unpack(&old.seconds[i], &touched)
			i++
		}
		for ; j < len(s.late) && s.late[j].sec == sec; j++ {
			touched.add(s.late[j].ns, s.late[j].v, histIndex(s.late[j].v))
		}
		v.seal(&touched)
	}
	keep(math.MaxInt64)
	s.sealed, s.late = v, s.late[:0]
}

// reduce merges the series' buckets that overlap [since, ∞) into a,
// oldest first, from the finest tier that covers the window.
func (s *series) reduce(since time.Time, a *accumulator) {
	s.mu.Lock()
	r := &s.tiers[tierSecond]
	// The seconds tier reaches secondSlots back, view and live ring together.
	if reach := r.latest - secondSlots + 1; r.cur == nil || (s.earliest < reach && since.Unix() < reach) {
		r = &s.tiers[tierHour] // a window older than every ring gets what the coarsest retains
		if m := &s.tiers[tierMinute]; m.covers(since, s.earliest) {
			r = m
		}
		r.reduce(since, a)
		s.mu.Unlock()
		return
	}
	s.foldLocked()
	// At width 1 the first overlapping index is the window's own start
	// second, and everything in the view is inside the tier's reach.
	from, v := since.Unix(), s.sealed
	var live [liveSeconds]summary
	n := 0
	r.walk(from, r.latest, func(b *bucket) {
		live[n], n = b.summary, n+1
		if a.hist != nil {
			b.addBins(a.hist) // integer adds: their order is immaterial
		}
	})
	s.mu.Unlock()

	i := len(v.seconds)
	for i > 0 && v.seconds[i-1].idx >= from {
		i--
	}
	for ; i < len(v.seconds); i++ {
		sec := &v.seconds[i]
		a.merge(&sec.summary)
		if a.hist != nil {
			addBins(&v, sec, a.hist)
		}
	}
	for k := range live[:n] {
		a.merge(&live[k])
	}
}
