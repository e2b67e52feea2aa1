package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// This file is the lock-light read side of a series: completed
// one-second buckets are sealed into an immutable view published
// through an atomic pointer, and the in-progress second is mirrored in
// a seqlock-style bucket whose fields are all atomics. Aggregate
// queries (mean/min/max/count/sum/rate) over that pair take no series
// lock and allocate nothing, so hundreds of concurrent check
// evaluations never serialize against writers — or each other — on the
// per-series mutex. Quantile queries keep the locked path: they need
// the histogram sketches, which are deliberately not copied into the
// sealed view (that would multiply the publish cost by histSize) — the
// view and the mirror carry bucket summaries only.
//
// Write-side protocol (all under the series mutex, single writer):
//
//   - first write of a new second: publish a view sealing everything
//     before that second. The just-finished second's ring bucket is
//     complete at that point, so the view is lossless without ever
//     reading the mirror. The new view extends the previous one —
//     expired seconds resliced off the front, the finished second
//     appended into the spare capacity of the backing array they share
//     — unless a late write moved history under it, in which case it
//     is rebuilt from the ring (republishLocked).
//   - write into the current second: it lands in the seconds ring
//     under the lock and marks the mirror dirty; the mirror is synced
//     from the ring bucket once per locked write section (record or a
//     RecordBatch series run), not per sample, keeping the hot write
//     path at one bool store per observation.
//   - late write into an already-sealed second: bumps the series'
//     late-write sequence, which readers compare against the value
//     stamped into the view at publish. A mismatch sends the read down
//     the locked path; the next second-boundary seal republishes with
//     the current sequence and re-arms the fast path. Deferring the
//     reconcile keeps out-of-order batches (the steady state for
//     replayed telemetry) allocation-free.
//
// Read-side protocol: check the late-write sequence, load view,
// snapshot hot, reload view; retry if the view moved or the hot
// seqlock was mid-write. The hot snapshot supplements the view only
// when its second is not already sealed into it (h.idx >= view.hotIdx)
// — rechecking the view after the hot snapshot is what makes the pair
// lossless: a reader that observes a mirror second at or past hotIdx
// is guaranteed (atomic ordering: the view publish precedes the mirror
// sync) to also observe the view holding every earlier second. A
// lagging mirror merely linearizes the read before the in-flight
// writes. A handful of failed attempts falls back to the locked path —
// correctness never depends on winning the race.

// sealedView is the atomically-published read index over sealed
// seconds. Immutable after publish.
type sealedView struct {
	// buckets holds the summary of every live one-second bucket with
	// idx < hotIdx, in index order. Successive views share one backing
	// array (republishLocked); a view owns only its own length of it.
	buckets []summary
	// earliestIdx/latestIdx mirror series.earliest and the seconds
	// ring's latest at publish time; readers extend latestIdx with the
	// hot second.
	earliestIdx int64
	latestIdx   int64
	// hotIdx is the first unsealed second: the hot mirror supplements
	// this view iff its idx is >= hotIdx.
	hotIdx int64
	// lateSeq is the series' late-write sequence at publish; a reader
	// seeing a newer value knows sealed history moved under this view.
	lateSeq uint64
}

// hotBucket mirrors the in-progress second for lock-free readers. All
// fields are atomics (race-detector clean); seq makes a multi-field
// snapshot consistent: odd while a sync is in flight, bumped twice per
// sync, so a reader whose two seq loads match saw a stable state. Only
// the write side mutates it, always under the series mutex.
type hotBucket struct {
	seq     atomic.Uint64
	idx     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	firstNs atomic.Int64
	lastNs  atomic.Int64
}

// syncLocked copies the current second's ring bucket into the mirror
// in one seqlock section. Caller holds the series mutex.
func (h *hotBucket) syncLocked(b *summary) {
	h.seq.Add(1)
	h.idx.Store(b.idx)
	h.count.Store(b.count)
	h.sumBits.Store(math.Float64bits(b.sum))
	h.minBits.Store(math.Float64bits(b.min))
	h.maxBits.Store(math.Float64bits(b.max))
	h.firstNs.Store(b.firstNs)
	h.lastNs.Store(b.lastNs)
	h.seq.Add(1)
}

// snapshot copies the mirror if no sync intervened; ok is false when
// the caller should retry (or fall back to the locked path).
func (h *hotBucket) snapshot() (summary, bool) {
	s1 := h.seq.Load()
	if s1&1 != 0 {
		return summary{}, false
	}
	snap := summary{
		idx:     h.idx.Load(),
		count:   h.count.Load(),
		sum:     math.Float64frombits(h.sumBits.Load()),
		min:     math.Float64frombits(h.minBits.Load()),
		max:     math.Float64frombits(h.maxBits.Load()),
		firstNs: h.firstNs.Load(),
		lastNs:  h.lastNs.Load(),
	}
	if h.seq.Load() != s1 {
		return summary{}, false
	}
	return snap, true
}

// republishLocked publishes a view sealing every live bucket before
// hotIdx, in index order. Caller holds the series mutex.
//
// When nothing moved under the previous view (same lateSeq, hotIdx
// ahead of its own) the new view extends it: expired summaries leave
// by reslicing the front, the second(s) finished since are appended
// into the spare capacity of the shared backing array. That is safe for
// the lock-free readers because a view never reads past its own length:
// the appended element lies beyond every slice published so far, and
// the one view that does include it is published (atomic store) after
// the element is written. So a series pays one small view allocation
// per second, and a copy only when the spare capacity runs out. After
// a late write the view is rebuilt from the ring by the same loop.
func (s *series) republishLocked(hotIdx int64) {
	r := &s.tiers[tierSecond]
	v := &sealedView{
		earliestIdx: s.earliest,
		latestIdx:   r.latest,
		hotIdx:      hotIdx,
		lateSeq:     s.lateSeq.Load(),
	}
	from := max(r.oldest(), s.earliest) // nothing older holds data
	if prev := s.view.Load(); prev != nil && prev.lateSeq == v.lateSeq && prev.hotIdx < hotIdx {
		v.buckets = prev.buckets
		for len(v.buckets) > 0 && v.buckets[0].idx < from {
			v.buckets = v.buckets[1:]
		}
		from = max(from, prev.hotIdx)
	} else if from < hotIdx {
		v.buckets = make([]summary, 0, viewCap(int(hotIdx-from)))
	}
	r.walk(from, hotIdx-1, func(b *bucket) {
		if len(v.buckets) == cap(v.buckets) {
			grown := make([]summary, len(v.buckets), viewCap(len(v.buckets)))
			copy(grown, v.buckets)
			v.buckets = grown
		}
		v.buckets = append(v.buckets, b.summary)
	})
	s.view.Store(v)
}

// viewCap is the capacity a view of n summaries is given: a quarter
// spare, so a series with a full ring copies its view about once a
// minute, and no floor, so the spare of a store of young series stays
// a few summaries each.
func viewCap(n int) int {
	return n + n/4 + 4
}

// sealOnWriteLocked is the write-side hook recordLocked calls after
// the rings have absorbed a sample for second sec: it keeps the sealed
// view in step and marks the mirror for the end-of-section sync.
func (s *series) sealOnWriteLocked(sec int64) {
	switch {
	case sec > s.curHotIdx:
		// First write of a new second: seal everything before it. The
		// mirror keeps showing the old second until the flush; readers
		// exclude it then (idx < hotIdx), so nothing double-counts.
		s.republishLocked(sec)
		s.curHotIdx = sec
		s.hotDirty = true
	case sec == s.curHotIdx:
		s.hotDirty = true
	default:
		// Late write into sealed history, or one too old for the seconds
		// ring (it may have lowered series.earliest, so the view's
		// coverage claim is stale): invalidate the fast path until the
		// next seal republishes.
		s.lateSeq.Add(1)
	}
}

// flushHotLocked syncs the mirror from the current second's ring
// bucket. Called once at the end of every locked write section. The
// mirror is dirty only after a write into the newest second, so that
// bucket is the seconds ring's cur.
func (s *series) flushHotLocked() {
	if !s.hotDirty {
		return
	}
	s.hotDirty = false
	s.hot.syncLocked(&s.tiers[tierSecond].cur.summary)
}

// reduceSealed merges the window's buckets from the sealed view plus
// the hot mirror into a, without the series lock and without
// allocating. It reports false, with a untouched, when the locked path
// must answer instead: no view yet, the window reaches past the seconds
// ring's coverage, stale sealed history, or the optimistic read lost
// too many races.
func (s *series) reduceSealed(since time.Time, a *accumulator) bool {
	sinceSec := since.Unix()
	for attempt := 0; attempt < 8; attempt++ {
		v := s.view.Load()
		if v == nil {
			return false
		}
		if s.lateSeq.Load() != v.lateSeq {
			// Sealed history moved under this view (out-of-order write);
			// the locked path sees it, the next seal re-arms us.
			return false
		}
		h, ok := s.hot.snapshot()
		if !ok || s.view.Load() != v {
			continue // writer in flight; retry with the fresh pair
		}
		// The hot second supplements the view only when not already
		// sealed into it.
		useHot := h.count > 0 && h.idx >= v.hotIdx
		latest := v.latestIdx
		if useHot && h.idx > latest {
			latest = h.idx
		}
		// Mirror ring.covers: the pair answers only windows inside the
		// seconds ring's coverage.
		oldest := latest - secondSlots + 1 // first second still held
		if v.earliestIdx < oldest && sinceSec < oldest {
			return false
		}
		// Mirror ring.reduce: the window's seconds (at width 1 the first
		// overlapping index is sinceSec itself), oldest first. The view is
		// in index order, so they are its tail.
		from := max(sinceSec, oldest)
		i := len(v.buckets)
		for i > 0 && v.buckets[i-1].idx >= from {
			i--
		}
		for ; i < len(v.buckets); i++ {
			a.merge(&v.buckets[i])
		}
		if useHot && h.idx >= from {
			a.merge(&h)
		}
		return true
	}
	return false
}
