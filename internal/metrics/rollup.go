package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// This file is the long-uptime side of the store: idle-series eviction
// (Maintain), per-tenant series accounting (TenantSeries), and the
// records that carry the minute and hour tiers across a daemon restart
// (Snapshot/Restore). The store encodes and decodes them; where they are
// kept is the caller's (contexpd writes them with journal.WriteFile).

// --- maintenance ---

// Maintain evicts series whose newest observation is older than
// idleFor relative to now, bounding store memory over long uptimes: a
// finished experiment's series disappear once nothing has written to
// them for the retention window.
// idleFor <= 0 disables eviction. Returns the number of evicted
// series. Run it periodically (contexpd's maintenance loop does).
func (st *Store) Maintain(now time.Time, idleFor time.Duration) int {
	if idleFor <= 0 {
		return 0
	}
	cutoff := now.Add(-idleFor).UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	all := st.dirty
	if all == nil {
		all = st.read.Load().series
	}
	kept := make(map[string]*series, len(all))
	for key, s := range all {
		// The verdict and the mark are one step under s.mu, and st.mu is
		// held until the index without the series is published: a writer
		// either records before the verdict (and is seen by it) or finds
		// the mark and resolves again under st.mu (Store.lockSeries),
		// after the publish.
		s.mu.Lock()
		s.evicted = s.lastWriteNs != math.MinInt64 && s.lastWriteNs < cutoff
		if !s.evicted {
			kept[key] = s
		}
		s.mu.Unlock()
	}
	evicted := len(all) - len(kept)
	if evicted > 0 {
		st.publishLocked(kept)
	}
	return evicted
}

// TenantSeries counts live series per canonical tenant (the series
// key's leading segment). The ops surfaces render the empty key as
// "default".
func (st *Store) TenantSeries() map[string]int {
	out := make(map[string]int)
	for key := range st.published() {
		tenant, _, _ := strings.Cut(key, "\x00")
		out[tenant]++
	}
	return out
}

// --- persistence ---
//
// A saved series is one record: its key, then its minute and hour tiers,
// each as every interval it holds, oldest first, exactly as a sealed view
// holds it. Every number is little-endian, a float its IEEE bits:
//
//	record := u32 len(key) · key · tier(minute) · tier(hour)
//	tier   := u32 n · n × bucket
//	bucket := idx · count · sum · min · max · firstNs · lastNs (8 bytes each)
//	          · lo · n · width (1 byte each) · n × width bytes of counts
//
// The seconds tier is not saved: it reaches four minutes and refills at once.

// savedTiers are the tiers a record carries, in its order.
var savedTiers = [...]int{tierMinute, tierHour}

// bucketHead is a saved bucket's size before its counts.
const bucketHead = 7*8 + 3

// Snapshot calls emit, which must not retain rec, with every series'
// record. Saving a tier is sealing a copy of it: under the series lock
// its late buffer is folded, its view's slice headers are copied and its
// live buckets sealed into a scratch view; the encoding runs unlocked.
func (st *Store) Snapshot(emit func(rec []byte) error) error {
	var rec []byte
	var live [len(savedTiers)]sealedView
	for key, s := range st.published() {
		var views [len(savedTiers)]sealedView
		s.mu.Lock()
		for i, t := range savedTiers {
			r := &s.tiers[t]
			r.foldLocked()
			views[i] = r.sealed
			live[i].buckets, live[i].bins = live[i].buckets[:0], live[i].bins[:0]
			r.walk(r.oldest(), r.latest, live[i].seal)
		}
		s.mu.Unlock()
		rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(key)))
		rec = append(rec, key...)
		for i := range views {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(views[i].buckets)+len(live[i].buckets)))
			rec = live[i].appendTo(views[i].appendTo(rec))
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// appendTo appends the view's buckets to rec as a record carries them.
func (v *sealedView) appendTo(rec []byte) []byte {
	for i := range v.buckets {
		sb := &v.buckets[i]
		for _, x := range [...]uint64{uint64(sb.idx), uint64(sb.count), math.Float64bits(sb.sum),
			math.Float64bits(sb.min), math.Float64bits(sb.max), uint64(sb.firstNs), uint64(sb.lastNs)} {
			rec = binary.LittleEndian.AppendUint64(rec, x)
		}
		rec = append(append(rec, sb.lo, sb.n, sb.width), v.bins[sb.off:][:int(sb.n)*int(sb.width)]...)
	}
	return rec
}

// Restore adds the series a Snapshot record holds. The store must not
// hold it: restoring comes before anything is recorded. rec is not retained.
func (st *Store) Restore(rec []byte) error {
	if len(rec) < 4 || uint64(binary.LittleEndian.Uint32(rec)) > uint64(len(rec)-4) {
		return errors.New("metrics: snapshot record: short key")
	}
	n := binary.LittleEndian.Uint32(rec)
	key, data, s := string(rec[4:][:n]), rec[4+n:], newSeries()
	for _, t := range savedTiers {
		var err error
		if data, err = s.restore(t, data); err != nil {
			return fmt.Errorf("metrics: snapshot record of %q: %w", key, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case len(data) != 0:
		return fmt.Errorf("metrics: snapshot record of %q: %d bytes after its tiers", key, len(data))
	case st.read.Load().series[key] != nil || st.dirty[key] != nil:
		return fmt.Errorf("metrics: snapshot record of %q: the store holds the series", key)
	}
	st.addLocked(key, s)
	return nil
}

// restore decodes one saved tier from the front of data into s, which
// nobody else holds, and returns the rest. It accepts only what Snapshot
// writes of a tier, all checked before more than the buckets the length
// allows is allocated. The newest intervals, up to liveBuckets, are
// unpacked live, the rest become the view as they are.
func (s *series) restore(t int, data []byte) ([]byte, error) {
	if len(data) < 4 || uint64(binary.LittleEndian.Uint32(data))*(bucketHead+1) > uint64(len(data)-4) {
		return nil, errors.New("short tier")
	}
	r, n, raw := &s.tiers[t], binary.LittleEndian.Uint32(data), data
	if data = data[4:]; n == 0 {
		return data, nil
	}
	all, size := sealedView{buckets: make([]sealedBucket, n)}, 0
	for i := range all.buckets {
		if len(data) < bucketHead {
			return nil, errors.New("short bucket")
		}
		u := func(at int) uint64 { return binary.LittleEndian.Uint64(data[at:]) }
		sb := sealedBucket{summary: summary{idx: int64(u(0)), count: int64(u(8)),
			sum: math.Float64frombits(u(16)), min: math.Float64frombits(u(24)), max: math.Float64frombits(u(32)),
			firstNs: int64(u(40)), lastNs: int64(u(48)),
		}, off: uint32(len(raw) - len(data) + bucketHead), lo: data[56], n: data[57], width: data[58]}
		bins := int(sb.n) * int(sb.width)
		if sb.width != 1 && sb.width != 2 && sb.width != 4 || sb.n == 0 || int(sb.lo)+int(sb.n) > histSize ||
			len(data) < bucketHead+bins || sb.idx < math.MinInt64/r.width || sb.idx > math.MaxInt64/r.width ||
			i > 0 && (sb.idx <= all.buckets[i-1].idx || sb.idx-all.buckets[0].idx >= r.reach) ||
			!sealable(&sb, data[bucketHead:][:bins]) {
			return nil, fmt.Errorf("bucket %d (%d of %d) is not one a tier seals", sb.idx, i, n)
		}
		all.buckets[i], size, data = sb, size+bins, data[bucketHead+bins:]
	}
	latest := all.buckets[n-1].idx

	all.bins = make([]byte, 0, size) // the counts, moved out of raw, where off pointed
	live := len(all.buckets)
	for i := range all.buckets {
		sb := &all.buckets[i]
		bins := raw[sb.off:][:int(sb.n)*int(sb.width)]
		sb.off, all.bins = uint32(len(all.bins)), append(all.bins, bins...)
		if sb.idx > latest-liveBuckets {
			live = min(live, i)
		}
		s.earliest = min(s.earliest, time.Unix(0, sb.firstNs).Unix())
		s.lastWriteNs = max(s.lastWriteNs, sb.lastNs)
	}
	for i := live; i < len(all.buckets); i++ {
		b := new(bucket)
		b.reset(all.buckets[i].idx)
		all.unpack(&all.buckets[i], b)
		r.live[b.idx&(liveBuckets-1)] = b
	}
	r.sealed = sealedView{buckets: all.buckets[:live], bins: all.bins[:all.buckets[live].off]}
	r.latest, r.cur = latest, r.live[latest&(liveBuckets-1)]
	return data, nil
}

// sealable reports whether counts are what sealing makes of a bucket's
// sketch: as many as its observations, the first and last bin occupied
// (add widens the range to bins it counts in), at the narrowest width
// that holds the largest.
func sealable(sb *sealedBucket, counts []byte) bool {
	var h [histSize]uint64
	addBins(&sealedView{bins: counts}, &sealedBucket{lo: sb.lo, n: sb.n, width: sb.width}, &h)
	var top, mass uint64
	for _, c := range h {
		top, mass = max(top, c), mass+c
	}
	width := uint8(4)
	switch {
	case top < 1<<8:
		width = 1
	case top < 1<<16:
		width = 2
	}
	return h[sb.lo] > 0 && h[int(sb.lo)+int(sb.n)-1] > 0 && mass == uint64(sb.count) && width == sb.width
}
