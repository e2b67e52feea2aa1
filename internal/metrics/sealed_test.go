package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSealedQueryMatchesExact drives random multi-second write
// patterns and checks every exact aggregation against the oracle.
func TestSealedQueryMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	var all []observation
	for i := 0; i < 2000; i++ {
		at := base.Add(time.Duration(rng.Intn(60_000)) * time.Millisecond)
		v := 1 + rng.Float64()*100
		st.Record("rt", scope, at, v)
		all = append(all, observation{at: at, value: v})
	}
	// Whole-second window starts only: the aggregate path snaps windows
	// to bucket boundaries, so on-boundary starts compare exactly.
	for _, sinceOff := range []time.Duration{0, 10 * time.Second, 30 * time.Second, 59 * time.Second} {
		since := base.Add(sinceOff)
		window := windowOf(all, since)
		for _, agg := range exactAggs {
			got, err := st.Query("rt", scope, since, agg)
			if err != nil {
				t.Fatalf("query %v since=%v: %v", agg, sinceOff, err)
			}
			want, err := queryExact(window, agg)
			if err != nil {
				t.Fatalf("exact %v: %v", agg, err)
			}
			tol := 1e-9 * (1 + want)
			if diff := got - want; diff > tol || diff < -tol {
				t.Errorf("agg %v since=%v: sealed=%v exact=%v", agg, sinceOff, got, want)
			}
		}
	}
}

// TestSealedLateWriteVisible checks the late-buffer protocol on the
// seconds tier: a write into a second no longer live is only buffered;
// the very next query folds it into the view and sees it; one no query
// follows is folded by the next new second; a write late by less than the
// live seconds, or older than the tier reaches, is never buffered there —
// the latter is the minute tier's to buffer. The oracle holds all nine
// aggregations at each stage, Store.Stats the counters.
func TestSealedLateWriteVisible(t *testing.T) {
	st := NewStore(0)
	var all []observation
	record := func(off time.Duration, v float64) {
		st.Record("rt", scopeV1, t0.Add(off), v)
		all = append(all, observation{t0.Add(off), v})
	}
	for i := 0; i < 10; i++ {
		record(time.Duration(i)*time.Second, 10+float64(i))
	}
	s := st.lookupBytes([]byte(seriesKey("rt", scopeV1)))
	state := func() (sealed, late int, stats Stats) {
		s.mu.Lock()
		sealed, late = len(s.tiers[tierSecond].sealed.buckets), len(s.tiers[tierSecond].late)
		s.mu.Unlock()
		return sealed, late, st.Stats()
	}
	if sealed, late, stats := state(); sealed != 10-liveBuckets || late != 0 ||
		stats != (Stats{Series: 1, LiveBuckets: liveBuckets + 2, SealedSeconds: 10 - liveBuckets}) {
		t.Fatalf("ten seconds in order: %d sealed, %d late, %+v", sealed, late, stats)
	}
	checkAgainstOracle(t, st, all, t0, "before the late write")

	record(time.Second, 500) // into the already-sealed second #1
	if _, late, stats := state(); late != 1 || stats.LateWrites != 1 || stats.LateFolds != 0 {
		t.Fatalf("a write into a sealed second: %d buffered, %+v", late, stats)
	}
	checkAgainstOracle(t, st, all, t0, "right after the late write")
	if _, late, stats := state(); late != 0 || stats.LateFolds != 1 {
		t.Fatalf("after the read: %d still buffered, %+v", late, stats)
	}

	record(7*time.Second, 70) // late, but into a second still dense
	if _, late, stats := state(); late != 0 || stats.LateWrites != 1 {
		t.Fatalf("a write into a live second was buffered: %d, %+v", late, stats)
	}
	record(2*time.Second, 9)
	record(4*time.Second+time.Millisecond, 8) // a second that had no data yet
	record(2*time.Second, 7)
	record(20*time.Second, 20) // a new second folds without a read
	if sealed, late, stats := state(); sealed != 10 || late != 0 || stats.LateWrites != 4 || stats.LateFolds != 2 {
		t.Fatalf("after the next new second: %d sealed, %d buffered, %+v", sealed, late, stats)
	}
	checkAgainstOracle(t, st, all, t0, "after the fold")
	checkAgainstOracle(t, st, all, t0.Add(3*time.Second), "after the fold, late seconds outside the window")

	// Older than the seconds tier reaches, and four minutes back: late for
	// the minute tier, which buffers it; still dense for the hour tier.
	record(20*time.Second-secondSlots*time.Second, 1)
	if _, late, stats := state(); late != 0 || stats.LateWrites != 5 || stats.LateDropped != 1 || stats.LateFolds != 2 {
		t.Fatalf("a write older than the tier: %d buffered, %+v", late, stats)
	}
	checkAgainstOracle(t, st, all, t0, "seconds tier after the dropped write")
	checkAgainstOracle(t, st, all, t0.Add(-time.Hour), "minute tier after the dropped write")
	if _, _, stats := state(); stats.LateFolds != 3 || stats.SealedSeconds != 10+1 || stats.LiveBuckets != 1+1+2 {
		t.Fatalf("after the minute tier's read: %+v", stats)
	}
}

// TestSealedQueryZeroAlloc: a query over sealed data allocates nothing,
// whichever of the nine aggregations it asks for.
func TestSealedQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bench gate holds this at zero")
	}
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1", Variant: "canary"}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 5000; i++ {
		st.Record("rt", scope, base.Add(time.Duration(i)*10*time.Millisecond), 1+float64(i%100))
	}
	since := base.Add(5 * time.Second)
	for _, agg := range allAggs {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := st.Query("rt", scope, since, agg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("agg %v: %v allocs/op, want 0", agg, allocs)
		}
	}
}

// TestSealedConcurrentConsistency hammers one series with batch
// writers while readers continuously query; the windowed count over a
// fixed `since` must never move backwards, and mean and p95 must stay
// inside the written value range — each would break if a reader ever
// merged a view and live buckets that do not belong together. Once per
// width: the writer's clock runs 1, 60 or 3 600 times as fast, so that
// the tier answering the whole history becomes the minute tier, then the
// hour tier, and stops short of the hour tier's reach, where the count
// would rightly fall.
func TestSealedConcurrentConsistency(t *testing.T) {
	for _, unit := range tierUnits {
		t.Run(fmt.Sprintf("%ds", unit), func(t *testing.T) { concurrentConsistency(t, unit) })
	}
}

func concurrentConsistency(t *testing.T, unit int64) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Now()
	st.Record("rt", scope, base, 5) // series exists before readers start
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]Sample, 64)
		step := time.Duration(unit) * time.Millisecond
		for i := 0; time.Duration(i)*step < (hourSlots-2)*time.Hour; {
			select {
			case <-stop:
				return
			default:
			}
			for k := range batch {
				batch[k] = Sample{
					Metric: "rt", Scope: scope,
					At:    base.Add(time.Duration(i) * step),
					Value: 5 + float64(i%10),
				}
				i++
			}
			st.RecordBatch(batch)
		}
	}()
	var prevCount float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		c, err := st.Query("rt", scope, base, AggCount)
		if err != nil {
			t.Fatal(err)
		}
		if c < prevCount {
			t.Fatalf("count went backwards: %v -> %v", prevCount, c)
		}
		prevCount = c
		for _, agg := range []Aggregation{AggMean, AggP95} {
			m, err := st.Query("rt", scope, base, agg)
			if err != nil {
				t.Fatal(err)
			}
			if m < 5 || m > 15 {
				t.Fatalf("%v %v outside written range [5,15)", agg, m)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// denseBucket is the bucket layout the live buckets replaced: four bytes
// a bin from the first count. The shadow rings hold these, so that the
// oracle shares no counting code with the buckets it checks.
type denseBucket struct {
	summary
	binLo, binHi uint8
	hist         [histSize]uint32
}

func (b *denseBucket) reset(idx int64) {
	*b = denseBucket{summary: emptySummary, binLo: math.MaxUint8}
	b.idx = idx
}

// add is bucket.add and tally together, written as what bucket.add is:
// merge with a one-observation summary.
func (b *denseBucket) add(ns int64, v float64, bin int) {
	b.merge(&summary{count: 1, sum: v, min: v, max: v, firstNs: ns, lastNs: ns})
	b.hist[bin]++
	b.binLo, b.binHi = min(b.binLo, uint8(bin)), max(b.binHi, uint8(bin))
}

// top is the bucket's largest count.
func (b *denseBucket) top() (top uint32) {
	for _, c := range b.hist {
		top = max(top, c)
	}
	return top
}

// counts reads a bucket's sketch by count values, whichever width it
// holds them in.
func (b *bucket) counts() (h [histSize]uint64) {
	b.addBins(&h)
	return h
}

// sameAs reports whether a live bucket holds what its shadow does: the
// same summary, bin range and count in every bin.
func (b *bucket) sameAs(d *denseBucket) bool {
	var want [histSize]uint64
	for i, c := range d.hist {
		want[i] = uint64(c)
	}
	return b.summary == d.summary && b.binLo == d.binLo && b.binHi == d.binHi && b.counts() == want
}

// shadowRing is the oracle of one tier: a ring of reach dense buckets —
// the layout the live buckets and the sealed view replaced — fed the same
// writes and read by walking it.
type shadowRing struct {
	width, reach int64
	slots        []*denseBucket
	latest       int64
	written      bool
}

func (r *shadowRing) oldest() int64 { return r.latest - r.reach + 1 }

func (r *shadowRing) slot(idx int64) int64 { return ((idx % r.reach) + r.reach) % r.reach }

// at returns the bucket for interval idx, emptied if its slot still held
// an interval that has left the reach, or nil when idx is older than that.
func (r *shadowRing) at(idx int64) *denseBucket {
	switch {
	case !r.written || idx > r.latest:
		r.latest, r.written = idx, true
	case idx < r.oldest():
		return nil
	}
	b := r.slots[r.slot(idx)]
	if b == nil {
		b = new(denseBucket)
		r.slots[r.slot(idx)] = b
		b.reset(idx)
	} else if b.idx != idx {
		b.reset(idx)
	}
	return b
}

// walk visits every bucket holding data with index in [from, to], oldest first.
func (r *shadowRing) walk(from, to int64, visit func(*denseBucket)) {
	for idx := max(from, r.oldest()); idx <= min(to, r.latest); idx++ {
		if b := r.slots[r.slot(idx)]; b != nil && b.idx == idx && b.count > 0 {
			visit(b)
		}
	}
}

func (r *shadowRing) reduce(since time.Time, a *accumulator) {
	r.walk(firstOverlapping(since.Unix(), r.width), r.latest, func(b *denseBucket) {
		a.merge(&b.summary)
		for i, c := range b.hist {
			a.hist[i] += uint64(c)
		}
	})
}

// covers is tier.covers, judged from the shadow's own state.
func (r *shadowRing) covers(since time.Time, earliest int64) bool {
	reach := r.oldest() * r.width
	return r.written && (earliest >= reach || since.Unix() >= reach)
}

// shadowed is a series beside a shadow ring for each of its tiers, and
// which of each tier's live slots has ever held an interval with a count
// above 255: exactly those must be wide.
type shadowed struct {
	s      *series
	shadow [numTiers]shadowRing
	wide   [numTiers][liveBuckets]bool
}

func newShadowed() *shadowed {
	p := &shadowed{s: newSeries()}
	for i := range p.shadow {
		r := &p.s.tiers[i]
		p.shadow[i] = shadowRing{width: r.width, reach: r.reach, slots: make([]*denseBucket, r.reach)}
	}
	return p
}

// bulkTallies is the largest count burst adds to a live bucket one tally
// at a time; a larger one widens the bucket and is added at once.
const bulkTallies = 1 << 10

// burst records n observations of v at one instant in a series and, if
// there are any, the shadow rings of its tiers. Into a second the series
// holds dense (its minute and hour are then dense too): one through
// recordLocked, which keeps the tiers in step, the rest added to each
// bucket in bulk — a bin holding 65 536 counts without 65 536 calls, and
// up to bulkTallies of them through tally, so that the byte a bin starts
// in is passed as the write path passes it. Into an older second: all n
// through recordLocked, because a fold adds buffered samples one by one
// and the shadows must add the same floats in the same order.
func burst(s *series, shadow *[numTiers]shadowRing, at time.Time, v float64, n int) {
	t, bin := stampOf(at), histIndex(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	single := n
	if r := &s.tiers[tierSecond]; r.cur == nil || t.sec > r.latest-liveBuckets {
		single = 1
	}
	for i := 0; i < single; i++ {
		s.recordLocked(&t, v)
		for k := 0; shadow != nil && k < numTiers; k++ {
			if b := shadow[k].at(t.idx[k]); b != nil {
				b.add(t.ns, v, bin)
			}
		}
	}
	for k := 0; single == 1 && n > 1 && k < numTiers; k++ {
		if b := s.tiers[k].at(t.idx[k]); b != nil {
			b.count += int64(n - 1)
			b.sum += float64(n-1) * v
			if n-1 <= bulkTallies {
				for range n - 1 {
					b.tally(bin)
				}
			} else {
				b.setCount(bin, uint32(b.counts()[bin])+uint32(n-1))
			}
		}
		if shadow == nil {
			continue
		}
		if b := shadow[k].at(t.idx[k]); b != nil {
			b.count += int64(n - 1)
			b.sum += float64(n-1) * v
			b.hist[bin] += uint32(n - 1)
		}
	}
}

// burst records into the series and its shadows, and notes a live slot
// whose interval now holds a count above 255.
func (p *shadowed) burst(at time.Time, v float64, n int) {
	burst(p.s, &p.shadow, at, v, n)
	t := stampOf(at)
	for k := range p.shadow {
		r, idx := &p.s.tiers[k], t.idx[k]
		if idx > r.latest-liveBuckets && p.shadow[k].at(idx).top() > math.MaxUint8 {
			p.wide[k][idx&(liveBuckets-1)] = true
		}
	}
}

// oracle is the tier that answers a window from since: the finest whose
// shadow ring, which has the tier's reach, covers it — the rule
// series.reduce applies to its tiers.
func (p *shadowed) oracle(since time.Time) int {
	for i := range p.shadow[:tierHour] {
		if p.shadow[i].covers(since, p.s.earliest) {
			return i
		}
	}
	return tierHour
}

// dense unpacks one bucket of a view into a full-size sketch.
func (v *sealedView) dense(i int) (h [histSize]uint64) {
	addBins(v, &v.buckets[i], &h)
	return h
}

// checkTier holds one tier, its late buffer folded, to its shadow ring
// bucket for bucket: the newest liveBuckets hold the same summary, bin
// range and counts, and a live slot is wide exactly when an interval it
// held had a count above 255; every older one is in the view, oldest
// first, summary and sketch, each sketch at the narrowest width and laid
// out back to back in the slab; and neither holds anything else.
func (p *shadowed) checkTier(t *testing.T, tier int, label string) {
	t.Helper()
	s, sh := p.s, &p.shadow[tier]
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.tiers[tier]
	r.foldLocked()
	v := &r.sealed
	label = fmt.Sprintf("%s, %d s tier", label, r.width)
	if r.latest != sh.latest {
		t.Fatalf("%s: newest interval %d, the shadow's %d", label, r.latest, sh.latest)
	}
	for slot, b := range r.live {
		if b != nil && (b.high != nil) != p.wide[tier][slot] {
			t.Fatalf("%s: live slot %d (interval %d) wide: %v; a count above 255 in its life: %v", label, slot, b.idx, b.high != nil, p.wide[tier][slot])
		}
	}
	i, live := 0, 0
	sh.walk(sh.oldest(), sh.latest, func(b *denseBucket) {
		if b.idx > r.latest-liveBuckets {
			live++
			if got := r.live[b.idx&(liveBuckets-1)]; got == nil || !got.sameAs(b) {
				t.Fatalf("%s: live bucket %d is %+v, the shadow has %+v", label, b.idx, got, b)
			}
			return
		}
		if i >= len(v.buckets) {
			t.Fatalf("%s: view holds %d buckets, the shadow has more (next: %d)", label, len(v.buckets), b.idx)
		}
		sb := &v.buckets[i]
		if sb.summary != b.summary {
			t.Fatalf("%s: view[%d] = %+v, the shadow has %+v", label, i, sb.summary, b.summary)
		}
		var want [histSize]uint64
		for bin, c := range b.hist {
			want[bin] = uint64(c)
		}
		top := b.top()
		if v.dense(i) != want {
			t.Fatalf("%s: view[%d] (interval %d) unpacks to a sketch that is not the bucket's", label, i, b.idx)
		}
		width := uint8(4)
		switch {
		case b.binLo > b.binHi:
			width = 0
		case top < 1<<8:
			width = 1
		case top < 1<<16:
			width = 2
		}
		if sb.width != width || (width > 0 && (sb.lo != b.binLo || sb.n != b.binHi-b.binLo+1)) {
			t.Fatalf("%s: view[%d] packs bins %d+%d at width %d; the bucket has [%d, %d], top count %d",
				label, i, sb.lo, sb.n, sb.width, b.binLo, b.binHi, top)
		}
		if i > 0 {
			if prev := &v.buckets[i-1]; sb.off != prev.off+uint32(prev.n)*uint32(prev.width) {
				t.Fatalf("%s: view[%d] at slab offset %d does not follow its predecessor (%d + %d×%d)",
					label, i, sb.off, prev.off, prev.n, prev.width)
			}
		}
		i++
	})
	if i != len(v.buckets) {
		t.Fatalf("%s: view holds %d buckets, the shadow %d older than the live ones", label, len(v.buckets), i)
	}
	r.walk(r.oldest(), r.latest, func(*bucket) { live-- })
	if live != 0 {
		t.Fatalf("%s: the tier holds %d live buckets the shadow does not", label, -live)
	}
}

func (p *shadowed) checkTiers(t *testing.T, label string) {
	t.Helper()
	for tier := range p.shadow {
		p.checkTier(t, tier, label)
	}
}

// checkReduce compares series.reduce bit for bit with the walk of the
// shadow ring of the tier that answers the window, which it returns: the
// merged summary — its sum included — the merged sketch and all nine
// aggregations.
func (p *shadowed) checkReduce(t *testing.T, since time.Time, label string) int {
	t.Helper()
	tier := p.oracle(since)
	locked := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	p.shadow[tier].reduce(since, &locked)
	fast := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	p.s.reduce(since, &fast)
	if math.Float64bits(fast.sum) != math.Float64bits(locked.sum) || fast.summary != locked.summary {
		t.Fatalf("%s: series %+v, shadow of tier %d %+v", label, fast.summary, tier, locked.summary)
	}
	if *fast.hist != *locked.hist {
		t.Fatalf("%s: merged sketches differ", label)
	}
	for _, agg := range allAggs {
		fv, ferr := fast.value(agg)
		lv, lerr := locked.value(agg)
		if math.Float64bits(fv) != math.Float64bits(lv) || ferr != lerr {
			t.Fatalf("%s %v: series %v, %v; shadow %v, %v", label, agg, fv, ferr, lv, lerr)
		}
	}
	return tier
}

// heldView is a view as a reader copied it, with what it summed to then.
type heldView struct {
	v     sealedView
	count int64
	mass  uint64
}

func holdView(v sealedView) heldView {
	h := heldView{v: v}
	h.count, h.mass = h.sums()
	return h
}

// sums reads every summary and every packed bin the view reaches.
func (h *heldView) sums() (count int64, mass uint64) {
	for i := range h.v.buckets {
		count += h.v.buckets[i].count
		for _, c := range h.v.dense(i) {
			mass += c
		}
	}
	return count, mass
}

// verify fails if the view no longer sums to what it did when copied.
func (h *heldView) verify(t *testing.T, label string) {
	t.Helper()
	if count, mass := h.sums(); count != h.count || mass != h.mass {
		t.Fatalf("%s: a view copied earlier summed to %d observations, %d in its sketches; now %d and %d",
			label, h.count, h.mass, count, mass)
	}
}

// tierUnits are the three widths, in seconds, by tier.
var tierUnits = [numTiers]int64{tierSecond: 1, tierMinute: 60, tierHour: 3600}

// TestSealedViewInvariant is the equivalence every tier rests on, as a
// seeded property over one series and its shadow rings, once per width:
// time moves in intervals of the tier under test, through every kind of
// write — in order, into the current interval, late inside the live
// buckets, late into sealed history (one sample, and storms of distinct
// values into neighbouring intervals with no read between: ten minutes
// late at minute width, three hours at hour width), older than the tier,
// across a gap larger than the tier, around its reach many times, in
// bursts that need two- and four-byte counts, before and after 1970.
// After every write
//
//   - series.reduce answers bit for bit what the walk of the answering
//     tier's shadow does — summary, sum, merged sketch — for every window
//     start tried: the same buckets merged in the same order, the late
//     ones with their samples added in arrival order;
//   - the tier under test, once folded, is bucket for bucket what its
//     shadow holds, however many extensions in place, regrows and folds
//     produced it (the other two every sixteenth write);
//   - a view copied earlier still sums to what it did when it was
//     copied: folds and regrows move the view, they never write into it.
func TestSealedViewInvariant(t *testing.T) {
	for tier, unit := range tierUnits {
		starts := []int64{-400, 1_700_000_000 / unit, -2_000_000_000 / unit}
		if raceEnabled { // one goroutine: the plain run walks all three
			starts = starts[:1]
		}
		for _, start := range starts {
			rng := rand.New(rand.NewSource(start))
			p := newShadowed()
			r := &p.s.tiers[tier]
			reach := r.reach
			now, newest := start, start*unit // the newest interval, and second, written
			var answered, pending, extended, moved, wide, wraps int
			var prevBacking *sealedBucket
			var held []heldView
			for step := 0; step < 4000; step++ {
				idx, storm := now, 1
				switch k := rng.Intn(100); {
				case k < 42: // the next interval
					now++
					idx = now
				case k < 68: // the current interval again
				case k < 75: // late, into a bucket still dense
					idx = now - 1 - rng.Int63n(liveBuckets-1)
				case k < 85: // late, into sealed history
					idx = now - liveBuckets - rng.Int63n(reach-liveBuckets)
				case k < 88: // a storm of late samples over three neighbouring intervals
					idx, storm = now-liveBuckets-2-rng.Int63n(100), 40
				case k < 91: // older than the tier reaches
					idx = now - reach - rng.Int63n(1000)
				case k < 97: // a short gap
					now += 2 + rng.Int63n(40)
					idx = now
				default: // a gap the tier cannot span
					now += reach + rng.Int63n(600)
					idx = now
					wraps++
				}
				n := 1
				if rng.Intn(12) == 0 { // a count around a width boundary
					n = []int{255, 256, 65535, 65536}[rng.Intn(4)] - rng.Intn(2)
				}
				for ; storm > 0; storm-- {
					at := idx
					if storm > 1 {
						at += rng.Int63n(3)
					}
					// Anywhere in the interval; half the writes into the current
					// one at the newest second, where a burst is added in bulk.
					sec := at*unit + rng.Int63n(unit)
					if at == now && rng.Intn(2) == 0 {
						sec = max(sec, newest)
					}
					if unit > 1 && sec <= newest-liveBuckets {
						n = min(n, 300) // added one by one: two-byte counts, not 65 536 calls
					}
					newest = max(newest, sec)
					p.burst(time.Unix(sec, rng.Int63n(int64(time.Second))), 5*math.Exp(rng.NormFloat64()), n)
					n = 1
				}
				label := fmt.Sprintf("width %d s start %d step %d", unit, start, step)

				if len(r.late) > 0 { // single goroutine: no lock needed to look
					pending++
				}
				for _, back := range []int64{0, 1, liveBuckets - 1, liveBuckets, 7, 60, reach - 1, reach, 2 * reach, -3} {
					since := time.Unix((now-back)*unit+rng.Int63n(unit), 500)
					if p.checkReduce(t, since, fmt.Sprintf("%s window -%d", label, back)) == tier {
						answered++
					}
				}
				p.checkTier(t, tier, label)
				if step%16 == 0 {
					p.checkTiers(t, label)
				}

				v := r.sealed
				if len(v.buckets) > 0 {
					if backing := &v.buckets[:cap(v.buckets)][cap(v.buckets)-1]; backing == prevBacking {
						extended++
					} else {
						moved++
						prevBacking = backing
					}
					if v.buckets[len(v.buckets)-1].width > 1 {
						wide++
					}
				}
				if step%16 == 0 { // each copy is checked again 128 steps on, and at the end
					held = append(held, holdView(v))
				}
				if len(held) > 8 {
					held[0].verify(t, label)
					held = held[1:]
				}
			}
			for i := range held {
				held[i].verify(t, fmt.Sprintf("width %d s start %d, at the end", unit, start))
			}
			// Not vacuous: the tier answered, reads met a late buffer to fold,
			// the view was both extended in place and moved (folded or
			// regrown), the reach was left behind whole many times, and
			// buckets of every width were sealed.
			st := Stats{LateFolds: r.lateFolds, LateWrites: r.lateWrites, LateDropped: r.lateDropped}
			if answered < 4000 || pending < 300 || st.LateFolds < 300 || st.LateWrites < 5000 || st.LateDropped < 50 ||
				extended < 500 || moved < 300 || wide < 50 || wraps < 50 {
				t.Errorf("width %d s start %d: %d answers, %d reads with late writes pending, %+v, %d views extended in place, %d folded or regrown, %d wide buckets, %d wraps — the walk misses a case",
					unit, start, answered, pending, st, extended, moved, wide, wraps)
			}
		}
	}
}

// TestSealedSketchCases: the packed sketch at the edges of its three
// count widths, sealed from the live ring and re-sealed by a fold, and a
// second that has no sketch at all.
func TestSealedSketchCases(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for _, tc := range []struct {
		n     int
		width uint8
	}{{1, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {1 << 20, 4}} {
		p := newShadowed()
		p.burst(base, 40, tc.n)                    // one bin holds all n
		p.burst(base.Add(time.Second), 40, 3)      // a narrow neighbour on each side
		p.burst(base.Add(2*time.Second), 4000, 1)  // of the wide second's bytes
		p.burst(base.Add(-time.Second), 0.0001, 2) // late, still dense: sealed in order, ahead of the others
		p.burst(base.Add((3+liveBuckets)*time.Second), 40, 1)
		label := fmt.Sprintf("%d counts in one bin", tc.n)
		p.checkTiers(t, label)
		sealed := &p.s.tiers[tierSecond]
		if got := sealed.sealed.buckets[1].width; got != tc.width {
			t.Errorf("%s: packed at width %d, want %d", label, got, tc.width)
		}
		// One more into the sealed wide second, at a boundary the count that
		// crosses it: the fold unpacks, adds and packs again, a width up.
		p.burst(base, 40, 1)
		p.burst(base.Add(2*time.Second), 0.5, 300)
		for _, back := range []time.Duration{-time.Second, 0, time.Second, 3 * time.Second} {
			if tier := p.checkReduce(t, base.Add(back), fmt.Sprintf("%s, window from %v", label, back)); tier != tierSecond {
				t.Errorf("%s: window from %v answered by tier %d, not the seconds tier", label, back, tier)
			}
		}
		p.checkTiers(t, label+", after the fold")
		want := tc.width
		switch tc.n + 1 {
		case 256:
			want = 2
		case 65536:
			want = 4
		}
		if got := sealed.sealed.buckets[1].width; got != want || sealed.lateFolds != 1 {
			t.Errorf("%s plus one late: packed at width %d after %d folds, want %d after one", label, got, sealed.lateFolds, want)
		}
	}

	// A second restored without a sketch (LoadSnapshot only restores the
	// coarser tiers; the tier type is the same at all three widths, so the
	// seconds tier is held to the same rule): inside the window it counts
	// exactly and makes a quantile ErrNoData, while it is live, once it is
	// sealed, and after a fold has added a late sample to it.
	p := newShadowed()
	for i := 0; i < 6; i++ {
		p.burst(base.Add(time.Duration(i)*time.Second), 10+float64(i), 2)
	}
	restored := snapshotBucket{
		Idx: base.Unix() + 2, Count: 4, Sum: 100, Min: 20, Max: 30,
		FirstAt: base.UnixNano() + 2e9, LastAt: base.UnixNano() + 2e9 + 5,
	}
	p.s.mu.Lock()
	p.s.restoreLocked(tierSecond, []snapshotBucket{restored}) // base+2 is the oldest live second
	sh := p.shadow[tierSecond].at(restored.Idx)
	sh.reset(restored.Idx)
	sh.summary = p.s.tiers[tierSecond].at(restored.Idx).summary
	p.s.mu.Unlock()
	check := func(stage string, counts [3]float64) {
		t.Helper()
		for _, tc := range []struct {
			back      time.Duration
			count     float64
			quantiles bool
		}{{0, counts[0], false}, {2 * time.Second, counts[1], false}, {3 * time.Second, counts[2], true}} {
			since := base.Add(tc.back)
			if tier := p.checkReduce(t, since, fmt.Sprintf("%s, window from %v", stage, tc.back)); tier != tierSecond {
				t.Fatalf("%s: window from %v answered by tier %d, not the seconds tier", stage, tc.back, tier)
			}
			a := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
			p.s.reduce(since, &a)
			if c, err := a.value(AggCount); err != nil || c != tc.count {
				t.Errorf("%s, window from %v: count %v, %v; want %v", stage, tc.back, c, err, tc.count)
			}
			if _, err := a.value(AggP95); tc.quantiles != (err == nil) || (err != nil && !errors.Is(err, ErrNoData)) {
				t.Errorf("%s, window from %v: p95 err = %v; answerable: %v", stage, tc.back, err, tc.quantiles)
			}
		}
		p.checkTier(t, tierSecond, stage) // the restore touched this tier alone
	}
	check("restored second, live", [3]float64{14, 10, 6})
	p.burst(base.Add(9*time.Second), 16, 2)
	if sec := p.s.tiers[tierSecond].sealed.buckets[2]; sec.idx != restored.Idx || sec.n != 0 || sec.width != 0 {
		t.Fatalf("restored second sealed as %+v, want no sketch", sec)
	}
	check("restored second, sealed", [3]float64{16, 12, 8})
	p.burst(base.Add(2*time.Second), 25, 1) // the fold unpacks a second without a sketch
	check("restored second, folded", [3]float64{17, 13, 8})
}

// TestLateBufferIsBounded: a series that is only back-filled — every
// write older than its live buckets, so nothing advances a tier, and
// nobody reads — folds a tier's late buffer when it reaches lateFoldAt
// rather than growing it by 24 bytes a sample for ever, and still answers
// as its shadow rings do.
func TestLateBufferIsBounded(t *testing.T) {
	p := newShadowed()
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(1_700_000_000, 0)
	p.burst(base, 10, 1)
	for i := 0; i < 6*lateFoldAt; i++ {
		// Late for the seconds tier, for the minute tier (and dropped by
		// the seconds tier), or for the hour tier (dropped by both others).
		back := liveBuckets*time.Second + time.Duration(rng.Int63n(int64(250*time.Second)))
		switch i % 3 {
		case 1:
			back = 5*time.Minute + time.Duration(rng.Int63n(int64(23*time.Hour)))
		case 2:
			back = 25*time.Hour + time.Duration(rng.Int63n(int64(300*time.Hour)))
		}
		p.burst(base.Add(-back), 5*math.Exp(rng.NormFloat64()), 1)
		for tier := range p.s.tiers {
			if r := &p.s.tiers[tier]; len(r.late) >= lateFoldAt || cap(r.late) > 2*lateFoldAt {
				t.Fatalf("write %d: tier %d buffers %d late writes (capacity %d), want fewer than %d", i, tier, len(r.late), cap(r.late), lateFoldAt)
			}
		}
	}
	for tier := range p.s.tiers {
		if r := &p.s.tiers[tier]; r.lateWrites < 2*lateFoldAt || r.lateFolds != r.lateWrites/lateFoldAt {
			t.Errorf("tier %d: %d late writes, %d folds; want a fold every %d writes and no other", tier, r.lateWrites, r.lateFolds, lateFoldAt)
		}
	}
	answered := map[int]bool{}
	for _, back := range []time.Duration{0, time.Minute, 4 * time.Minute, time.Hour, 23 * time.Hour, 100 * time.Hour, 400 * time.Hour} {
		answered[p.checkReduce(t, base.Add(-back), fmt.Sprintf("window -%v", back))] = true
	}
	if len(answered) != numTiers {
		t.Errorf("tiers that answered: %v, want all three", answered)
	}
	p.checkTiers(t, "after the back-fill")
}

// TestRestoreIntoSealedHistory: LoadSnapshot merges into a series that
// may hold newer data, and a file written from a ring's slot table is not
// in index order. A restored bucket lands where its samples would have —
// dense if its interval is still live, in the view if it is older, at its
// place in index order, nowhere if it is beyond the reach — without a
// sketch, replacing what was there; a late write folded into it later
// finds it like any other bucket.
func TestRestoreIntoSealedHistory(t *testing.T) {
	p := newShadowed()
	base := time.Unix(1_700_000_000, 0).Truncate(time.Minute)
	minute := base.Unix() / 60
	for i := 0; i <= 30; i += 2 { // minutes 0, 2 … 30: 28 and 30 live, the rest sealed
		p.burst(base.Add(time.Duration(i)*time.Minute), 10+float64(i), 3)
	}
	restore := func(offsets ...int64) {
		t.Helper()
		var saved []snapshotBucket
		for _, off := range offsets {
			at := (minute + off) * int64(time.Minute)
			saved = append(saved, snapshotBucket{Idx: minute + off, Count: 4, Sum: 100 + float64(off), Min: 20, Max: 30, FirstAt: at, LastAt: at + 5})
		}
		saved = append(saved, snapshotBucket{Idx: minute + 7}) // no observations: skipped
		p.s.mu.Lock()
		p.s.restoreLocked(tierMinute, saved)
		p.s.mu.Unlock()
		for _, sb := range saved[:len(offsets)] {
			if b := p.shadow[tierMinute].at(sb.Idx); b != nil {
				b.reset(sb.Idx)
				b.summary = summary{idx: sb.Idx, count: 4, sum: sb.Sum, min: 20, max: 30, firstNs: sb.FirstAt, lastNs: sb.LastAt}
			}
		}
	}
	windows := func(stage string) {
		t.Helper()
		for _, off := range []int64{-10, 9, 10, 11, 13, 21, 25} {
			if tier := p.checkReduce(t, base.Add(time.Duration(off)*time.Minute), fmt.Sprintf("%s, window from minute %d", stage, off)); tier != tierMinute {
				t.Fatalf("%s: window from minute %d answered by tier %d", stage, off, tier)
			}
		}
	}
	// Newest first, as a wrapped slot table presents them: an empty live
	// slot, a live bucket with a sketch, a gap in the view, before the
	// view's first bucket, and one interval beyond the reach.
	restore(29, 28, 13, -5, 30-minuteSlots)
	windows("inserted")
	p.checkTier(t, tierMinute, "inserted")
	if got, want := len(p.s.tiers[tierMinute].sealed.buckets), 14+2; got != want {
		t.Fatalf("view holds %d minutes after the restore, want %d", got, want)
	}
	// Over a sealed bucket that has a sketch: its bins stay behind in the
	// slab, so the layout check waits for the fold below to rebuild it.
	restore(10)
	windows("replaced")
	p.burst(base.Add(10*time.Minute+time.Second), 25, 2)
	p.burst(base.Add(13*time.Minute), 26, 1)
	windows("folded")
	p.checkTiers(t, "folded")
}

// FuzzSealedSketch: arbitrary per-interval histograms, sealed into a
// tier's view as they leave its live buckets (extended, trimmed, regrown,
// folded with late writes), merge from the series exactly as the dense
// buckets of the shadow rings merge. Five input bytes make one burst: how
// far to advance (or how late to write), the value's bin, and a 24-bit
// count; every input is run three times, its steps taken in seconds, in
// minutes and in hours.
func FuzzSealedSketch(f *testing.F) {
	op := func(step, bin byte, n int) []byte { return []byte{step, bin, byte(n), byte(n >> 8), byte(n >> 16)} }
	var boundaries []byte
	for _, n := range []int{255, 256, 65535, 65536} {
		boundaries = append(boundaries, op(1, 100, n-2)...) // a burst is one more than its count bytes:
		boundaries = append(boundaries, op(1, 100, n-1)...) // n-1 and n observations
	}
	f.Add(boundaries)
	f.Add(append(op(1, 0, 0), op(0, 219, 70000)...))                           // both end bins in one interval
	f.Add(append(append(op(1, 7, 300), op(40, 9, 1)...), op(0x84, 7, 300)...)) // a gap, then a late write
	f.Add(append(op(0x7f, 50, 1<<24-1), op(0xff, 50, 1)...))                   // the largest count and jump, the latest write
	f.Add(append(boundaries, append(op(0x80, 100, 65536), boundaries...)...))  // a late write among wide buckets
	// A live bucket's bytes at their edge, one tally at a time: a bin that
	// reaches 255 in its interval stays narrow, one that reaches 256 widens.
	f.Add(append(op(1, 100, 254), op(5, 0, 0)...))
	f.Add(append(op(1, 100, 255), op(5, 0, 0)...))
	// A slot that widened and is reused, four intervals on, with small
	// counts: it stays wide, and seals at width 1 the bytes a never-widened
	// bucket would.
	f.Add(append(append(append(op(1, 100, 299), op(4, 100, 2)...), op(1, 101, 2)...), op(6, 0, 0)...))
	// Late writes folded into a sealed interval of width 1, one of width 2,
	// and one of width 1 whose 255 the late write takes to 256.
	f.Add(append(append(append(append(append(op(1, 50, 1), op(1, 60, 299)...), op(1, 70, 254)...),
		op(5, 0, 0)...), op(0x86, 50, 0)...), append(op(0x85, 60, 2), op(0x84, 70, 0)...)...))
	f.Fuzz(func(t *testing.T, input []byte) {
		for tier, unit := range tierUnits {
			p := newShadowed()
			reach := p.s.tiers[tier].reach
			start := 1_700_000_000 / unit
			now := start
			budget := 1 << 18 // observations into sealed seconds are added one by one
			for data := input; len(data) >= 5 && now < start+4*reach; data = data[5:] {
				idx := now
				if step := int64(data[0]); step < 0x80 {
					now += step // 0: the current interval again
					idx = now
				} else {
					idx = now - (step - 0x7f) // late by 1 … 128 intervals
				}
				v := histValue(int(data[1]) % histSize)
				n := 1 + int(data[2]) | int(data[3])<<8 | int(data[4])<<16
				if (now-idx)*unit >= liveBuckets {
					if n = min(n, budget); n == 0 {
						continue
					}
					budget -= n
				}
				p.burst(time.Unix(idx*unit, 0), v, n)
			}
			for _, back := range []int64{0, 1, 5, 60, reach - 1} {
				p.checkReduce(t, time.Unix((now-back)*unit, 0), fmt.Sprintf("width %d s window -%d", unit, back))
			}
			p.checkTiers(t, "tier")
		}
	})
}

// TestSealedStaleViewsStayImmutable: successive views share their two
// backing arrays, so a reader still holding an old view reads memory
// the writer is appending next to; and a fold replaces both arrays
// while readers hold the old ones. Run once per width, time moving in
// intervals of the tier under test. Each interval has a content that
// follows from its index — every eleventh one a burst that needs
// two-byte counts, and any number of late writes of the same value on
// top; readers re-verify every summary and every packed bin of views
// they copied up to 160 intervals ago, that each still sums to what it
// did when copied, and windowed queries through the public path that the
// tier answers, while the writer seals hundreds of intervals through
// regrows and hundreds of folds. Run under -race, an append or a fold
// that landed inside a copied view's length is a reported race; without
// it, a torn or overwritten element fails the content check.
func TestSealedStaleViewsStayImmutable(t *testing.T) {
	for tier, unit := range tierUnits {
		t.Run(fmt.Sprintf("%ds", unit), func(t *testing.T) { staleViewsStayImmutable(t, tier, unit) })
	}
}

func staleViewsStayImmutable(t *testing.T, tier int, unit int64) {
	const readers, minIntervals, minChecks = 2, 700, 40
	// The window the readers query must be the tier's to answer: ten
	// intervals, or — the minute tier answers ten hours — thirty.
	window := int64(10)
	if tier == tierHour {
		window = 30
	}
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := int64(1_700_000_000) / unit
	value := func(idx int64) float64 { return float64(1 + idx%7) }
	count := func(idx int64) int64 {
		if idx%11 == 0 {
			return 300
		}
		return 3
	}
	s := st.getOrCreate(seriesKey("rt", scope))
	r := &s.tiers[tier]
	writeInterval := func(idx int64) {
		burst(s, nil, time.Unix(idx*unit, 0), value(idx), int(count(idx)))
		if idx%3 == 0 { // late, into sealed buckets 20 and 90 back; the next reader or interval folds
			for _, back := range []int64{20, 90} {
				if late := idx - back; late >= base {
					burst(s, nil, time.Unix(late*unit, 0), value(late), 2)
				}
			}
		}
	}
	next := base
	for ; next < base+window+20; next++ {
		writeInterval(next)
	}

	var stop atomic.Bool
	var checks [readers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []heldView // oldest first; stale by up to len(held) intervals
			heldNewest := int64(math.MinInt64)
			for !stop.Load() {
				s.mu.Lock()
				v := r.sealed
				s.mu.Unlock()
				newest := v.buckets[len(v.buckets)-1].idx
				if newest != heldNewest {
					heldNewest = newest
					held = append(held, holdView(v))
					if len(held) > 160 { // two regrows of a full seconds tier's view
						held = held[1:]
					}
				}
				for h := 0; h < len(held); h += 20 {
					v := &held[h].v
					prev := int64(math.MinInt64)
					for i := range v.buckets {
						b := &v.buckets[i]
						var want [histSize]uint64
						want[histIndex(value(b.idx))] = uint64(b.count)
						if b.idx <= prev || b.count < count(b.idx) || (b.count-count(b.idx))%2 != 0 || b.sum != float64(b.count)*value(b.idx) ||
							b.min != value(b.idx) || b.max != value(b.idx) || v.dense(i) != want {
							t.Errorf("held view (newest %d) element %d is not a content its interval can have: %+v", v.buckets[len(v.buckets)-1].idx, i, *b)
							return
						}
						prev = b.idx
					}
					if c, mass := held[h].sums(); c != held[h].count || mass != held[h].mass {
						t.Errorf("held view (newest %d) summed to %d observations when copied, %d now", v.buckets[len(v.buckets)-1].idx, held[h].count, c)
						return
					}
				}
				// The public path: the window's intervals before the newest
				// sealed one this reader has seen are sealed and whole.
				since := time.Unix((newest-window+1)*unit, 0)
				c, err := st.Query("rt", scope, since, AggCount)
				if err != nil || c < float64(window*3) {
					t.Errorf("count since %d intervals before %d = %v, %v; want >= %d", window, newest, c, err, window*3)
					return
				}
				if p, err := st.Query("rt", scope, since, AggMax); err != nil || p < 1 || p > 7 {
					t.Errorf("max since %d intervals before %d = %v, %v; want within [1, 7]", window, newest, p, err)
					return
				}
				if p, err := st.Query("rt", scope, since, AggP95); err != nil || p < 1 || p > 7 {
					t.Errorf("p95 since %d intervals before %d = %v, %v; want within [1, 7]", window, newest, p, err)
					return
				}
				checks[g].Add(1)
			}
		}(g)
	}
	enough := func() bool {
		for g := range checks {
			if checks[g].Load() < minChecks {
				return false
			}
		}
		return true
	}
	slabs, slab := 0, (*byte)(nil)
	for ; next < base+minIntervals || (!enough() && !t.Failed()); next++ {
		writeInterval(next)
		s.mu.Lock() // a reader's query may be the one that folds
		if p := &r.sealed.bins[:1][0]; p != slab {
			slabs, slab = slabs+1, p
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	s.mu.Lock()
	folds := r.lateFolds
	s.mu.Unlock()
	if slabs < minIntervals/100 || folds < minIntervals/4 {
		t.Errorf("the slab moved %d times and %d folds ran in %d intervals: the readers saw too few", slabs, folds, next-base)
	}
}

// TestWriteRacingMaintainIsKept: a writer resolves its series, Maintain
// then judges that series idle and drops it from the map, and only then
// does the writer take the series lock. The sample must land where a
// query finds it — in the series' replacement — not in the orphan.
func TestWriteRacingMaintainIsKept(t *testing.T) {
	st := NewStore(0)
	st.Record("rt", scopeV1, t0, 100)
	key := seriesKey("rt", scopeV1)
	resolved := st.lookupBytes([]byte(key)) // the writer's lookup
	if n := st.Maintain(t0.Add(48*time.Hour), 24*time.Hour); n != 1 {
		t.Fatalf("Maintain evicted %d series, want 1", n)
	}
	// The rest of RecordBatch's series run, from the lock on.
	at := stampOf(t0.Add(48 * time.Hour))
	s := resolved
	s.mu.Lock()
	if s.evicted {
		s.mu.Unlock()
		s = st.lockSeries(key)
	}
	s.recordLocked(&at, 7)
	s.mu.Unlock()
	if s == resolved {
		t.Error("the write went into the evicted series")
	}
	for _, agg := range []Aggregation{AggCount, AggMax} {
		want := map[Aggregation]float64{AggCount: 1, AggMax: 7}[agg]
		if got, err := st.Query("rt", scopeV1, t0.Add(47*time.Hour), agg); err != nil || got != want {
			t.Errorf("%v after the racing write = %v, %v; want %v", agg, got, err, want)
		}
	}
	if n := st.SeriesCount(); n != 1 {
		t.Errorf("%d series after the racing write, want 1", n)
	}
	// A series Maintain judged live carries no mark.
	if st.Maintain(t0.Add(49*time.Hour), 24*time.Hour) != 0 || s.evicted {
		t.Error("a series written an hour ago was evicted")
	}
}
