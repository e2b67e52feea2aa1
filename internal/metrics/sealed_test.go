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

// TestSealedLateWriteVisible checks the late-buffer protocol: a write
// into a second the live ring no longer holds is only buffered; the very
// next query folds it into the view and sees it; one no query follows is
// folded by the next new second; a write late by less than the live
// seconds, or older than the tier reaches, is never buffered. The oracle
// holds all nine aggregations at each stage, Store.Stats the counters.
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
		sealed, late = len(s.sealed.seconds), len(s.late)
		s.mu.Unlock()
		return sealed, late, st.Stats()
	}
	if sealed, late, stats := state(); sealed != 10-liveSeconds || late != 0 ||
		stats != (Stats{Series: 1, LiveBuckets: liveSeconds + 2, SealedSeconds: 10 - liveSeconds}) {
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

	record(20*time.Second-secondSlots*time.Second, 1) // older than the seconds tier reaches
	if _, late, stats := state(); late != 0 || stats.LateWrites != 4 || stats.LateDropped != 1 {
		t.Fatalf("a write older than the tier: %d buffered, %+v", late, stats)
	}
	checkAgainstOracle(t, st, all, t0, "seconds tier after the dropped write")
	checkAgainstOracle(t, st, all, t0.Add(-time.Hour), "minute ring after the dropped write")
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
// merged a view and a current second that do not belong together.
func TestSealedConcurrentConsistency(t *testing.T) {
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
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := range batch {
				batch[k] = Sample{
					Metric: "rt", Scope: scope,
					At:    base.Add(time.Duration(i) * time.Millisecond),
					Value: 5 + float64(i%10),
				}
				i++
			}
			st.RecordBatch(batch)
		}
	}()
	var prevCount float64
	deadline := time.Now().Add(500 * time.Millisecond)
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

// shadowed is a series beside the oracle of its seconds tier: one ring
// of secondSlots dense buckets — the tier's whole reach, the layout the
// live ring and the sealed view replaced — fed the same writes.
type shadowed struct {
	s      *series
	shadow ring
}

func newShadowed() *shadowed {
	return &shadowed{newSeries(), newRing(time.Second, secondSlots)}
}

// burst records n observations of v at one instant in a series and, if
// there is one, the shadow ring of its seconds tier. Into a second the
// series holds dense: one through recordLocked, which keeps the tier in
// step, the rest added to each ring's bucket in bulk — a bin holding
// 65 536 counts without 65 536 calls. Into an older second: all n through
// recordLocked, because a fold adds buffered samples one by one and the
// shadow must add the same floats in the same order.
func burst(s *series, shadow *ring, at time.Time, v float64, n int) {
	t, bin := stampOf(at), histIndex(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	bulk := func(b *bucket) {
		if b != nil {
			b.count += int64(n - 1)
			b.sum += float64(n-1) * v
			b.hist[bin] += uint32(n - 1)
		}
	}
	single := n
	if r := &s.tiers[tierSecond]; r.cur == nil || t.sec >= r.oldest() {
		single = 1
	}
	for i := 0; i < single; i++ {
		s.recordLocked(&t, v)
		if shadow != nil {
			if b := shadow.at(t.sec); b != nil {
				b.add(t.ns, v, bin)
			}
		}
	}
	if single == 1 {
		for i := range s.tiers {
			bulk(s.tiers[i].at(t.idx[i]))
		}
		if shadow != nil {
			bulk(shadow.at(t.sec))
		}
	}
}

func (p *shadowed) burst(at time.Time, v float64, n int) { burst(p.s, &p.shadow, at, v, n) }

// answers reports whether the seconds tier answers a window from since:
// the rule the shadow ring, which has the tier's reach, applies to itself.
func (p *shadowed) answers(since time.Time) bool {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	return p.shadow.covers(since, p.s.earliest)
}

// dense unpacks one second of a view into a full-size sketch.
func (v *sealedView) dense(i int) (h [histSize]uint64) {
	addBins(v, &v.seconds[i], &h)
	return h
}

// checkTier holds the seconds tier, its late buffer folded, to the
// shadow ring bucket for bucket: the newest liveSeconds are the live
// ring's dense buckets, equal in every field; every older one is in the
// view, oldest first, summary and sketch, each sketch at the narrowest
// width and laid out back to back in the slab; and neither holds
// anything else.
func (p *shadowed) checkTier(t *testing.T, label string) {
	t.Helper()
	s, sh := p.s, &p.shadow
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	r, v := &s.tiers[tierSecond], &s.sealed
	if r.latest != sh.latest {
		t.Fatalf("%s: live ring at second %d, shadow at %d", label, r.latest, sh.latest)
	}
	i, live := 0, 0
	sh.walk(sh.oldest(), sh.latest, func(b *bucket) {
		if b.idx > r.latest-liveSeconds {
			live++
			if got := r.slots[r.slot(b.idx)]; got == nil || *got != *b {
				t.Fatalf("%s: live second %d is %+v, the shadow has %+v", label, b.idx, got, b)
			}
			return
		}
		if i >= len(v.seconds) {
			t.Fatalf("%s: view holds %d seconds, the shadow has more (next: %d)", label, len(v.seconds), b.idx)
		}
		sec := &v.seconds[i]
		if sec.summary != b.summary {
			t.Fatalf("%s: view[%d] = %+v, the shadow has %+v", label, i, sec.summary, b.summary)
		}
		var want [histSize]uint64
		var top uint32
		for bin, c := range b.hist {
			want[bin] = uint64(c)
			top = max(top, c)
		}
		if v.dense(i) != want {
			t.Fatalf("%s: view[%d] (second %d) unpacks to a sketch that is not the bucket's", label, i, b.idx)
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
		if sec.width != width || (width > 0 && (sec.lo != b.binLo || sec.n != b.binHi-b.binLo+1)) {
			t.Fatalf("%s: view[%d] packs bins %d+%d at width %d; the bucket has [%d, %d], top count %d",
				label, i, sec.lo, sec.n, sec.width, b.binLo, b.binHi, top)
		}
		if i > 0 {
			if prev := &v.seconds[i-1]; sec.off != prev.off+uint32(prev.n)*uint32(prev.width) {
				t.Fatalf("%s: view[%d] at slab offset %d does not follow its predecessor (%d + %d×%d)",
					label, i, sec.off, prev.off, prev.n, prev.width)
			}
		}
		i++
	})
	if i != len(v.seconds) {
		t.Fatalf("%s: view holds %d seconds, the shadow %d older than the live ones", label, len(v.seconds), i)
	}
	r.walk(r.oldest(), r.latest, func(*bucket) { live-- })
	if live != 0 {
		t.Fatalf("%s: the live ring holds %d seconds the shadow does not", label, -live)
	}
}

// checkReduce compares series.reduce, for a window the seconds tier
// answers, bit for bit with the locked walk of the shadow ring: the
// merged summary — its sum included — the merged sketch and all nine
// aggregations.
func (p *shadowed) checkReduce(t *testing.T, since time.Time, label string) {
	t.Helper()
	locked := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	p.s.mu.Lock()
	p.shadow.reduce(since, &locked)
	p.s.mu.Unlock()
	fast := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	p.s.reduce(since, &fast)
	if math.Float64bits(fast.sum) != math.Float64bits(locked.sum) || fast.summary != locked.summary {
		t.Fatalf("%s: series %+v, shadow %+v", label, fast.summary, locked.summary)
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
	for i := range h.v.seconds {
		count += h.v.seconds[i].count
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

// TestSealedViewInvariant is the equivalence the seconds tier rests on,
// as a seeded property over one series and its shadow ring driven through
// every kind of write: in order, into the current second, late inside the
// live seconds, late into sealed history (one sample, and storms of
// distinct values into neighbouring seconds with no read between), older
// than the tier, across a gap larger than the tier, around it many times,
// in bursts that need two- and four-byte counts, before and after 1970.
// After every write
//
//   - whenever the tier answers, series.reduce answers bit for bit what
//     the locked walk of the shadow does — summary, sum, merged sketch —
//     for every window start tried: the same seconds merged in the same
//     order, the late ones with their samples added in arrival order;
//   - live ring and view, once folded, are bucket for bucket what the
//     shadow holds, however many extensions in place, regrows and folds
//     produced them;
//   - a view copied earlier still sums to what it did when it was
//     copied: folds and regrows move the view, they never write into it.
func TestSealedViewInvariant(t *testing.T) {
	for _, start := range []int64{1_700_000_000, -400, -2_000_000_000} {
		rng := rand.New(rand.NewSource(start))
		p := newShadowed()
		now := start
		var answered, pending, extended, moved, wide int
		var prevBacking *sealedSecond
		var held []heldView
		for step := 0; step < 4000; step++ {
			sec, storm := now, 1
			switch k := rng.Intn(100); {
			case k < 42: // the next second
				now++
				sec = now
			case k < 68: // the current second again
			case k < 75: // late, into a second still dense
				sec = now - 1 - rng.Int63n(liveSeconds-1)
			case k < 85: // late, into sealed history
				sec = now - liveSeconds - rng.Int63n(secondSlots-liveSeconds)
			case k < 88: // a storm of late samples over three neighbouring seconds
				sec, storm = now-liveSeconds-2-rng.Int63n(100), 40
			case k < 91: // older than the tier reaches
				sec = now - secondSlots - rng.Int63n(1000)
			case k < 97: // a short gap
				now += 2 + rng.Int63n(40)
				sec = now
			default: // a gap the tier cannot span
				now += secondSlots + rng.Int63n(600)
				sec = now
			}
			n := 1
			if rng.Intn(12) == 0 { // a count around a width boundary
				n = []int{255, 256, 65535, 65536}[rng.Intn(4)] - rng.Intn(2)
			}
			for ; storm > 0; storm-- {
				at := sec
				if storm > 1 {
					at += rng.Int63n(3)
				}
				p.burst(time.Unix(at, rng.Int63n(int64(time.Second))), 5*math.Exp(rng.NormFloat64()), n)
				n = 1
			}
			label := fmt.Sprintf("start %d step %d", start, step)

			if len(p.s.late) > 0 { // single goroutine: no lock needed to look
				pending++
			}
			for _, back := range []int64{0, 1, liveSeconds - 1, liveSeconds, 7, 60, secondSlots - 1, secondSlots, 2 * secondSlots, -3} {
				since := time.Unix(now-back, 500)
				if !p.answers(since) {
					continue
				}
				answered++
				p.checkReduce(t, since, fmt.Sprintf("%s window -%ds", label, back))
			}
			p.checkTier(t, label)

			v := p.s.sealed
			if len(v.seconds) > 0 {
				if backing := &v.seconds[:cap(v.seconds)][cap(v.seconds)-1]; backing == prevBacking {
					extended++
				} else {
					moved++
					prevBacking = backing
				}
				if v.seconds[len(v.seconds)-1].width > 1 {
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
			held[i].verify(t, fmt.Sprintf("start %d, at the end", start))
		}
		// Not vacuous: the tier answered, reads met a late buffer to fold,
		// the view was both extended in place and moved (folded or regrown),
		// the slot tables of all three rings grew, and seconds of every
		// width were sealed.
		st := Stats{LateFolds: p.s.lateFolds, LateWrites: p.s.lateWrites, LateDropped: p.s.lateDropped}
		grown := len(p.s.tiers[tierMinute].slots) > 4 && len(p.s.tiers[tierHour].slots) > 4 && len(p.shadow.slots) == secondSlots
		if answered < 4000 || pending < 300 || st.LateFolds < 300 || st.LateWrites < 10_000 || st.LateDropped < 50 ||
			extended < 500 || moved < 300 || wide < 50 || !grown {
			t.Errorf("start %d: %d answers, %d reads with late writes pending, %+v, %d views extended in place, %d folded or regrown, %d wide seconds, slot tables grown: %v — the walk misses a case",
				start, answered, pending, st, extended, moved, wide, grown)
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
		p.burst(base.Add((3+liveSeconds)*time.Second), 40, 1)
		label := fmt.Sprintf("%d counts in one bin", tc.n)
		p.checkTier(t, label)
		if got := p.s.sealed.seconds[1].width; got != tc.width {
			t.Errorf("%s: packed at width %d, want %d", label, got, tc.width)
		}
		// One more into the sealed wide second, at a boundary the count that
		// crosses it: the fold unpacks, adds and packs again, a width up.
		p.burst(base, 40, 1)
		p.burst(base.Add(2*time.Second), 0.5, 300)
		for _, back := range []time.Duration{-time.Second, 0, time.Second, 3 * time.Second} {
			if since := base.Add(back); p.answers(since) {
				p.checkReduce(t, since, fmt.Sprintf("%s, window from %v", label, back))
			} else {
				t.Errorf("%s: window from %v not answered by the seconds tier", label, back)
			}
		}
		p.checkTier(t, label+", after the fold")
		want := tc.width
		switch tc.n + 1 {
		case 256:
			want = 2
		case 65536:
			want = 4
		}
		if got := p.s.sealed.seconds[1].width; got != want || p.s.lateFolds != 1 {
			t.Errorf("%s plus one late: packed at width %d after %d folds, want %d after one", label, got, p.s.lateFolds, want)
		}
	}

	// A second restored without a sketch (LoadSnapshot only restores the
	// coarser rings; the bucket type is the same on all three, so the
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
	*p.shadow.at(restored.Idx) = *p.s.tiers[tierSecond].at(restored.Idx)
	p.s.mu.Unlock()
	check := func(stage string, counts [3]float64) {
		t.Helper()
		for _, tc := range []struct {
			back      time.Duration
			count     float64
			quantiles bool
		}{{0, counts[0], false}, {2 * time.Second, counts[1], false}, {3 * time.Second, counts[2], true}} {
			since := base.Add(tc.back)
			if !p.answers(since) {
				t.Fatalf("%s: window from %v not answered by the seconds tier", stage, tc.back)
			}
			p.checkReduce(t, since, fmt.Sprintf("%s, window from %v", stage, tc.back))
			a := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
			p.s.reduce(since, &a)
			if c, err := a.value(AggCount); err != nil || c != tc.count {
				t.Errorf("%s, window from %v: count %v, %v; want %v", stage, tc.back, c, err, tc.count)
			}
			if _, err := a.value(AggP95); tc.quantiles != (err == nil) || (err != nil && !errors.Is(err, ErrNoData)) {
				t.Errorf("%s, window from %v: p95 err = %v; answerable: %v", stage, tc.back, err, tc.quantiles)
			}
		}
		p.checkTier(t, stage)
	}
	check("restored second, live", [3]float64{14, 10, 6})
	p.burst(base.Add(9*time.Second), 16, 2)
	if sec := p.s.sealed.seconds[2]; sec.idx != restored.Idx || sec.n != 0 || sec.width != 0 {
		t.Fatalf("restored second sealed as %+v, want no sketch", sec)
	}
	check("restored second, sealed", [3]float64{16, 12, 8})
	p.burst(base.Add(2*time.Second), 25, 1) // the fold unpacks a second without a sketch
	check("restored second, folded", [3]float64{17, 13, 8})
}

// FuzzSealedSketch: arbitrary per-second histograms, sealed into the
// view as they leave the live ring (extended, trimmed, regrown, folded
// with late writes), merge from the series exactly as the dense buckets
// of the shadow ring merge. Five input bytes make one burst: how far to
// advance (or how late to write), the value's bin, and a 24-bit count.
func FuzzSealedSketch(f *testing.F) {
	op := func(step, bin byte, n int) []byte { return []byte{step, bin, byte(n), byte(n >> 8), byte(n >> 16)} }
	var boundaries []byte
	for _, n := range []int{255, 256, 65535, 65536} {
		boundaries = append(boundaries, op(1, 100, n-2)...) // a burst is one more than its count bytes:
		boundaries = append(boundaries, op(1, 100, n-1)...) // n-1 and n observations
	}
	f.Add(boundaries)
	f.Add(append(op(1, 0, 0), op(0, 219, 70000)...))                           // both end bins in one second
	f.Add(append(append(op(1, 7, 300), op(40, 9, 1)...), op(0x84, 7, 300)...)) // a gap, then a late write
	f.Add(append(op(0x7f, 50, 1<<24-1), op(0xff, 50, 1)...))                   // the largest count and jump, the latest write
	f.Add(append(boundaries, append(op(0x80, 100, 65536), boundaries...)...))  // a late write among wide seconds
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newShadowed()
		now := int64(1_700_000_000)
		budget := 1 << 18 // observations into sealed seconds are added one by one
		for ; len(data) >= 5 && now < 1_700_000_000+4*secondSlots; data = data[5:] {
			sec := now
			if step := int64(data[0]); step < 0x80 {
				now += step // 0: the current second again
				sec = now
			} else {
				sec = now - (step - 0x7f) // late by 1 … 128 s
			}
			v := histValue(int(data[1]) % histSize)
			n := 1 + int(data[2]) | int(data[3])<<8 | int(data[4])<<16
			if sec <= now-liveSeconds {
				if n = min(n, budget); n == 0 {
					continue
				}
				budget -= n
			}
			p.burst(time.Unix(sec, 0), v, n)
		}
		for _, back := range []int64{0, 1, 5, 60, secondSlots - 1} {
			if since := time.Unix(now-back, 0); p.answers(since) {
				p.checkReduce(t, since, fmt.Sprintf("window -%ds", back))
			}
		}
		p.checkTier(t, "tier")
	})
}

// TestSealedStaleViewsStayImmutable: successive views share their two
// backing arrays, so a reader still holding an old view reads memory
// the writer is appending next to; and a fold replaces both arrays
// while readers hold the old ones. Each second here has a content that
// follows from its index — every eleventh one a burst that needs
// two-byte counts, and any number of late writes of the same value on
// top; readers re-verify every summary and every packed bin of views
// they copied up to 160 seconds ago, that each still sums to what it did
// when copied, and windowed queries through the public path, while the
// writer seals thousands of seconds through dozens of regrows and
// hundreds of folds. Run under -race, an append or a fold that landed
// inside a copied view's length is a reported race; without it, a torn
// or overwritten element fails the content check.
func TestSealedStaleViewsStayImmutable(t *testing.T) {
	const readers, minSeconds, minChecks = 2, 2000, 100
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	value := func(sec int64) float64 { return float64(1 + sec%7) }
	count := func(sec int64) int64 {
		if sec%11 == 0 {
			return 300
		}
		return 3
	}
	s := st.getOrCreate(seriesKey("rt", scope))
	writeSecond := func(sec int64) {
		burst(s, nil, time.Unix(sec, 0), value(sec), int(count(sec)))
		if sec%3 == 0 { // late, into sealed seconds 20 and 90 s back; the next reader or second folds
			for _, back := range []int64{20, 90} {
				if late := sec - back; late >= base.Unix() {
					burst(s, nil, time.Unix(late, 0), value(late), 2)
				}
			}
		}
	}
	next := base.Unix()
	for ; next < base.Unix()+20; next++ {
		writeSecond(next)
	}

	var stop atomic.Bool
	var checks [readers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []heldView // oldest first; stale by up to len(held) seconds
			heldNewest := int64(math.MinInt64)
			for !stop.Load() {
				s.mu.Lock()
				v := s.sealed
				s.mu.Unlock()
				newest := v.seconds[len(v.seconds)-1].idx
				if newest != heldNewest {
					heldNewest = newest
					held = append(held, holdView(v))
					if len(held) > 160 { // two regrows of a full tier's view
						held = held[1:]
					}
				}
				for h := 0; h < len(held); h += 20 {
					v := &held[h].v
					prev := int64(math.MinInt64)
					for i := range v.seconds {
						b := &v.seconds[i]
						var want [histSize]uint64
						want[histIndex(value(b.idx))] = uint64(b.count)
						if b.idx <= prev || b.count < count(b.idx) || (b.count-count(b.idx))%2 != 0 || b.sum != float64(b.count)*value(b.idx) ||
							b.min != value(b.idx) || b.max != value(b.idx) || v.dense(i) != want {
							t.Errorf("held view (newest %d) element %d is not a content its second can have: %+v", v.seconds[len(v.seconds)-1].idx, i, *b)
							return
						}
						prev = b.idx
					}
					if c, mass := held[h].sums(); c != held[h].count || mass != held[h].mass {
						t.Errorf("held view (newest %d) summed to %d observations when copied, %d now", v.seconds[len(v.seconds)-1].idx, held[h].count, c)
						return
					}
				}
				// The public path: the ten seconds before the newest sealed
				// one this reader has seen are sealed and whole.
				since := time.Unix(newest-9, 0)
				c, err := st.Query("rt", scope, since, AggCount)
				if err != nil || c < 10*3 {
					t.Errorf("count since 10 s before second %d = %v, %v; want >= 30", newest, c, err)
					return
				}
				if p, err := st.Query("rt", scope, since, AggMax); err != nil || p < 1 || p > 7 {
					t.Errorf("max since 10 s before second %d = %v, %v; want within [1, 7]", newest, p, err)
					return
				}
				if p, err := st.Query("rt", scope, since, AggP95); err != nil || p < 1 || p > 7 {
					t.Errorf("p95 since 10 s before second %d = %v, %v; want within [1, 7]", newest, p, err)
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
	for ; next < base.Unix()+minSeconds || (!enough() && !t.Failed()); next++ {
		writeSecond(next)
		s.mu.Lock() // a reader's query may be the one that folds
		if p := &s.sealed.bins[:1][0]; p != slab {
			slabs, slab = slabs+1, p
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if folds := st.Stats().LateFolds; slabs < minSeconds/100 || folds < minSeconds/4 {
		t.Errorf("the slab moved %d times and %d folds ran in %d seconds: the readers saw too few", slabs, folds, next-base.Unix())
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
