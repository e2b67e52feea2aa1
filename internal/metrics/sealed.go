package metrics

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"time"
)

// This file is the older part of a tier (ring.go) — every interval
// behind its liveBuckets dense ones, back to its reach — and the one
// read path of a series.
//
// An interval that falls out of the live buckets is sealed into the
// tier's view, the only store of it from then on: a slice of 64-byte
// sealedBuckets (the bucket's summary plus where its sketch sits), in
// index order, and one byte slab holding, back to back, each interval's
// occupied sketch bins at the narrowest count width that fits them. A
// finished second, minute or hour so costs ~80 bytes, not a 288-byte
// live bucket, and a 60 s p95 streams ~4 KB of contiguous memory.
//
// Both arrays are append-only. A new interval trims those that left the
// tier's reach off the front by reslicing and appends those leaving the
// live buckets into the spare capacity; when either array runs out of
// spare the live part of both moves into fresh arrays (regrow). Nothing
// inside the length of a view a reader holds is ever written again, so
// every Query, at whatever width, is
//
//	pick the finest tier covering the window; lock; fold its late
//	buffer; copy the view's two slice headers and the live summaries
//	(for a quantile, add their bins); unlock; merge the window's
//	sealed buckets from the view, oldest first, then the copied live ones.
//
// That is the order a walk of one ring of reach dense buckets would
// merge in, so the answer is that walk's bit for bit
// (TestSealedViewInvariant, FuzzSealedSketch); view and live buckets are
// read under the lock that writes them: nothing to retry.
//
// A write older than the live buckets but inside the tier's reach is
// only appended to the tier's late buffer; the next read of the tier, its
// next new interval, or the buffer reaching lateFoldAt folds it into the
// view (foldLocked). Out-of-order batches (the steady state for replayed
// telemetry) so cost an append per sample and one view copy per fold.

// sealedBucket is one finished interval in the view: its summary and the
// place of its packed sketch in the view's slab. 64 bytes.
type sealedBucket struct {
	summary
	// The n bins from lo on are bins[off : off+n*width], each a
	// little-endian count of width bytes.
	off          uint32
	lo, n, width uint8
}

// sealedView holds the sealed buckets: every interval inside the tier's
// reach, older than the live ones, that holds data, in index order. What
// lies inside the length of either slice is immutable, so a copy of the
// view taken under the series lock is read without it.
type sealedView struct {
	buckets []sealedBucket
	bins    []byte
}

// viewCap is the capacity an array of n live elements is given: a
// quarter spare, so a full seconds tier moves its view about once a
// minute, and no floor, so the spare of a store of young series stays a
// few elements each.
func viewCap(n int) int {
	return n + n/4 + 4
}

// packed is how b's sketch goes into a view: its n occupied bins, from
// bin lo on, and the narrowest width — 1, 2 or 4 bytes — that holds the
// largest count. A narrow bucket's counts are its bytes; a wide one's
// may all fit in them again. Only a bucket holding data is sealed.
func (b *bucket) packed() (lo, n, width uint8) {
	lo, n = b.binLo, b.binHi-b.binLo+1
	if b.high == nil {
		return lo, n, 1
	}
	var bits uint32
	for _, c := range b.high[lo:][:n] {
		bits |= c
	}
	switch {
	case bits == 0:
		width = 1
	case bits < 1<<8:
		width = 2
	default:
		width = 4
	}
	return lo, n, width
}

// seal appends a finished interval. Only spare capacity is written:
// nothing a reader's copy of the view reaches.
func (v *sealedView) seal(b *bucket) {
	lo, n, width := b.packed()
	if need := int(n) * int(width); len(v.buckets) == cap(v.buckets) || len(v.bins)+need > cap(v.bins) {
		v.regrow(need)
	}
	v.buckets = append(v.buckets, sealedBucket{
		summary: b.summary, off: uint32(len(v.bins)),
		lo: lo, n: n, width: width,
	})
	if width == 1 { // every count is its byte
		v.bins = append(v.bins, b.hist[lo:][:n]...)
		return
	}
	for i := int(lo); i < int(lo)+int(n); i++ {
		c := uint32(b.hist[i]) | b.high[i]<<8
		if width == 2 {
			v.bins = binary.LittleEndian.AppendUint16(v.bins, uint16(c))
		} else {
			v.bins = binary.LittleEndian.AppendUint32(v.bins, c)
		}
	}
}

// regrow moves the view into fresh arrays with room for one more bucket
// of need bytes and a quarter spare, leaving behind the slab bytes of
// buckets already trimmed. The old arrays stay as they are for whoever
// still reads them.
func (v *sealedView) regrow(need int) {
	base := uint32(len(v.bins))
	if len(v.buckets) > 0 {
		base = v.buckets[0].off
	}
	buckets := make([]sealedBucket, len(v.buckets), viewCap(len(v.buckets)+1))
	for i, sb := range v.buckets {
		sb.off -= base
		buckets[i] = sb
	}
	live := v.bins[base:]
	bins := make([]byte, len(live), viewCap(len(live)+need))
	copy(bins, live)
	v.buckets, v.bins = buckets, bins
}

// addBins adds sb's packed sketch into h: a query's merged sketch, or
// the counts a fold unpacks the interval into (the bucket's bytes when
// the interval was packed at width 1).
func addBins[T uint8 | uint32 | uint64](v *sealedView, sb *sealedBucket, h *[histSize]T) {
	src, dst := v.bins[sb.off:], h[sb.lo:][:sb.n]
	switch sb.width {
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

// unpack is seal's inverse: sb's summary and sketch into b, which the
// caller has reset: straight into its bytes if they were packed in
// bytes, else count by count, widening b.
func (v *sealedView) unpack(sb *sealedBucket, b *bucket) {
	b.summary = sb.summary
	b.binLo, b.binHi = sb.lo, sb.lo+sb.n-1
	if sb.width == 1 {
		addBins(v, sb, &b.hist)
		return
	}
	var counts [histSize]uint32
	addBins(v, sb, &counts)
	for i := int(b.binLo); i <= int(b.binHi); i++ {
		b.setCount(i, counts[i])
	}
}

// lateSample is a write into a sealed interval, waiting for the next fold.
type lateSample struct {
	idx, ns int64
	v       float64
}

// lateFoldAt is the late buffer's length at which the write that reached
// it folds: a series that is only ever back-filled, and never read, holds
// a bounded buffer.
const lateFoldAt = 512

// lateLocked takes a write older than the tier's live buckets: inside
// the reach it waits in the late buffer for the next fold, beyond it the
// tier drops it.
func (r *tier) lateLocked(idx, ns int64, v float64) {
	if idx < r.oldest() {
		r.lateDropped++
		return
	}
	r.late = append(r.late, lateSample{idx, ns, v})
	r.lateWrites++
	if len(r.late) >= lateFoldAt {
		r.foldLocked()
	}
}

// sealLocked keeps the view in step with a tier about to advance to
// interval idx, before the live slots are recycled: the late buffer is
// folded while the reach still holds every interval in it, the view is
// trimmed to the new reach, and the buckets idx pushes out of the live
// ones are sealed.
func (r *tier) sealLocked(idx int64) {
	r.foldLocked()
	v, oldest := &r.sealed, idx-r.reach+1
	for len(v.buckets) > 0 && v.buckets[0].idx < oldest {
		v.buckets = v.buckets[1:]
	}
	r.walk(oldest, idx-liveBuckets, v.seal)
}

// foldLocked merges the late buffer into the view: one stable sort by
// index, one merge-join into fresh arrays (the old ones stay as they
// are for readers still holding them), each touched interval unpacked,
// given its samples in arrival order — the adds a dense bucket would
// have made, so the same sum — and sealed again. Every buffered interval
// is inside the tier's reach: the fold runs before the reach moves.
func (r *tier) foldLocked() {
	if len(r.late) == 0 {
		return
	}
	r.lateFolds++
	slices.SortStableFunc(r.late, func(a, b lateSample) int { return cmp.Compare(a.idx, b.idx) })
	old := r.sealed
	v := sealedView{
		buckets: make([]sealedBucket, 0, viewCap(min(len(old.buckets)+len(r.late), int(r.reach)))),
		bins:    make([]byte, 0, viewCap(len(old.bins))),
	}
	var touched bucket
	i := 0
	keep := func(until int64) { // the buckets before until are copied as they are
		for ; i < len(old.buckets) && old.buckets[i].idx < until; i++ {
			sb := old.buckets[i]
			bins := old.bins[sb.off:][:int(sb.n)*int(sb.width)]
			sb.off = uint32(len(v.bins))
			// Nobody holds v yet: append may move it.
			v.buckets, v.bins = append(v.buckets, sb), append(v.bins, bins...)
		}
	}
	for j := 0; j < len(r.late); {
		idx := r.late[j].idx
		keep(idx)
		touched.reset(idx)
		if i < len(old.buckets) && old.buckets[i].idx == idx {
			old.unpack(&old.buckets[i], &touched)
			i++
		}
		for ; j < len(r.late) && r.late[j].idx == idx; j++ {
			bin := histIndex(r.late[j].v)
			touched.add(r.late[j].ns, r.late[j].v, bin)
			touched.tally(bin)
		}
		v.seal(&touched)
	}
	keep(math.MaxInt64)
	r.sealed, r.late = v, r.late[:0]
}

// reduce merges the series' buckets that overlap [since, ∞) into a,
// oldest first, from the finest tier that covers the window: the one
// function that merges a window, at every width.
func (s *series) reduce(since time.Time, a *accumulator) {
	s.mu.Lock()
	r := &s.tiers[tierHour] // a window older than every tier gets what the coarsest retains
	for i := range s.tiers[:tierHour] {
		if s.tiers[i].covers(since, s.earliest) {
			r = &s.tiers[i]
			break
		}
	}
	r.foldLocked()
	// Everything in the view is inside the tier's reach.
	from, v := firstOverlapping(since.Unix(), r.width), r.sealed
	var live [liveBuckets]summary
	n := 0
	r.walk(from, r.latest, func(b *bucket) {
		live[n], n = b.summary, n+1
		if a.hist != nil {
			b.addBins(a.hist) // integer adds: their order is immaterial
		}
	})
	s.mu.Unlock()

	i := len(v.buckets)
	for i > 0 && v.buckets[i-1].idx >= from {
		i--
	}
	for ; i < len(v.buckets); i++ {
		sb := &v.buckets[i]
		a.merge(&sb.summary)
		if a.hist != nil {
			addBins(&v, sb, a.hist)
		}
	}
	for k := range live[:n] {
		a.merge(&live[k])
	}
}
