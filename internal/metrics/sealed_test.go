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

// servedFromView reports whether a read of the window from since would
// be answered from the sealed view, not the locked ring walk.
func servedFromView(s *series, since time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.stale && s.tiers[tierSecond].covers(since, s.earliest)
}

// TestSealedLateWriteVisible checks the stale-then-rebuild protocol: an
// out-of-order write into a sealed second sends the very next query
// down the locked path, where it is visible, and stays visible once the
// next new second has rebuilt the view and re-armed the fast path. The
// oracle holds all nine aggregations at each of the three stages.
func TestSealedLateWriteVisible(t *testing.T) {
	st := NewStore(0)
	var all []observation
	record := func(off time.Duration, v float64) {
		st.Record("rt", scopeV1, t0.Add(off), v)
		all = append(all, observation{t0.Add(off), v})
	}
	for i := 0; i < 5; i++ {
		record(time.Duration(i)*time.Second, 10+float64(i))
	}
	s := st.lookupBytes([]byte(seriesKey("rt", scopeV1)))
	if !servedFromView(s, t0) {
		t.Fatal("in-order writes left the view stale")
	}
	checkAgainstOracle(t, st, all, t0, "before the late write")

	record(time.Second, 500) // into the already-sealed second #1
	if servedFromView(s, t0) {
		t.Fatal("a late write into a sealed second left the view armed")
	}
	checkAgainstOracle(t, st, all, t0, "right after the late write")

	record(10*time.Second, 20) // a new second rebuilds
	if !servedFromView(s, t0) {
		t.Fatal("the next new second did not re-arm the view")
	}
	checkAgainstOracle(t, st, all, t0, "after the rebuild")
	checkAgainstOracle(t, st, all, t0.Add(2*time.Second), "after the rebuild, late second outside the window")
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

// burst records n observations of v at one instant: one through
// recordLocked, which keeps the sealed view in step, the rest added to
// each ring's bucket in bulk — a bin holding 65 536 counts without
// 65 536 calls.
func burst(s *series, at time.Time, v float64, n int) {
	t := stampOf(at)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recordLocked(&t, v)
	for i := range s.tiers {
		if b := s.tiers[i].at(t.idx[i]); b != nil {
			b.count += int64(n - 1)
			b.sum += float64(n-1) * v
			b.hist[histIndex(v)] += uint32(n - 1)
		}
	}
}

// dense unpacks one second of a view into a full-size sketch.
func (v *sealedView) dense(i int) (h [histSize]uint64) {
	v.addBins(&v.seconds[i], &h)
	return h
}

// checkViewAgainstRing holds a view that is not stale to what a rebuild
// from the seconds ring would produce: every bucket older than the
// newest that holds data, oldest first, summary and sketch, each sketch
// at the narrowest width and laid out back to back in the slab. Caller
// holds the series mutex.
func checkViewAgainstRing(t *testing.T, s *series, label string) {
	t.Helper()
	r, v := &s.tiers[tierSecond], &s.sealed
	i := 0
	for idx := r.oldest(); idx < r.latest; idx++ {
		b := r.slots[r.slot(idx)]
		if b == nil || b.idx != idx || b.count == 0 {
			continue
		}
		if i >= len(v.seconds) {
			t.Fatalf("%s: view holds %d seconds, the ring has more (next: %d)", label, len(v.seconds), idx)
		}
		sec := &v.seconds[i]
		if sec.summary != b.summary {
			t.Fatalf("%s: view[%d] = %+v, the ring has %+v", label, i, sec.summary, b.summary)
		}
		var want [histSize]uint64
		var top uint32
		for bin, c := range b.hist {
			want[bin] = uint64(c)
			top = max(top, c)
		}
		if v.dense(i) != want {
			t.Fatalf("%s: view[%d] (second %d) unpacks to a sketch that is not the bucket's", label, i, idx)
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
	}
	if i != len(v.seconds) {
		t.Fatalf("%s: view holds %d seconds, a rebuild %d", label, len(v.seconds), i)
	}
}

// checkReduceAgainstRing compares series.reduce, for a window the view
// answers, bit for bit with the locked walk of the seconds ring: the
// merged summary, the merged sketch and all nine aggregations.
func checkReduceAgainstRing(t *testing.T, s *series, since time.Time, label string) {
	t.Helper()
	locked := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	s.mu.Lock()
	s.tiers[tierSecond].reduce(since, &locked)
	s.mu.Unlock()
	fast := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
	s.reduce(since, &fast)
	if math.Float64bits(fast.sum) != math.Float64bits(locked.sum) || fast.summary != locked.summary {
		t.Fatalf("%s: view %+v, ring %+v", label, fast.summary, locked.summary)
	}
	if *fast.hist != *locked.hist {
		t.Fatalf("%s: merged sketches differ", label)
	}
	for _, agg := range allAggs {
		fv, ferr := fast.value(agg)
		lv, lerr := locked.value(agg)
		if math.Float64bits(fv) != math.Float64bits(lv) || ferr != lerr {
			t.Fatalf("%s %v: view %v, %v; ring %v, %v", label, agg, fv, ferr, lv, lerr)
		}
	}
}

// TestSealedViewInvariant is the equivalence the view read rests on, as
// a seeded property over one series driven through every kind of write:
// in order, into the current second, late into sealed history, older
// than the ring, across a gap larger than the ring, around the ring
// many times, in bursts that need two- and four-byte counts, before and
// after 1970. After every write
//
//   - a view that is not stale is, element for element and bin for bin,
//     what a rebuild from the ring would hold, however many extensions
//     in place and regrows produced it;
//   - whenever the view answers, it answers bit for bit what the locked
//     ring.reduce does — summary and merged sketch — for every window
//     start tried: the same buckets merged in the same order.
func TestSealedViewInvariant(t *testing.T) {
	for _, start := range []int64{1_700_000_000, -400, -2_000_000_000} {
		rng := rand.New(rand.NewSource(start))
		s := newSeries()
		now := start
		var answered, extended, moved, wide int
		var prevBacking *sealedSecond
		for step := 0; step < 4000; step++ {
			sec := now
			switch k := rng.Intn(100); {
			case k < 45: // the next second
				now++
				sec = now
			case k < 75: // the current second again
			case k < 87: // late, into sealed history still in the ring
				sec = now - 1 - rng.Int63n(secondSlots-1)
			case k < 91: // older than the ring reaches
				sec = now - secondSlots - rng.Int63n(1000)
			case k < 97: // a short gap
				now += 2 + rng.Int63n(40)
				sec = now
			default: // a gap the ring cannot span
				now += secondSlots + rng.Int63n(600)
				sec = now
			}
			n := 1
			if rng.Intn(12) == 0 { // a count around a width boundary
				n = []int{255, 256, 65535, 65536}[rng.Intn(4)] - rng.Intn(2)
			}
			burst(s, time.Unix(sec, rng.Int63n(int64(time.Second))), 5*math.Exp(rng.NormFloat64()), n)
			label := fmt.Sprintf("start %d step %d", start, step)

			s.mu.Lock()
			v := s.sealed
			if !s.stale {
				checkViewAgainstRing(t, s, label)
			}
			s.mu.Unlock()
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
			for _, back := range []int64{0, 1, 7, 60, secondSlots - 1, secondSlots, 2 * secondSlots, -3} {
				since := time.Unix(now-back, 500)
				if !servedFromView(s, since) {
					continue
				}
				answered++
				checkReduceAgainstRing(t, s, since, fmt.Sprintf("%s window -%ds", label, back))
			}
		}
		// Not vacuous: the view answered, was both extended in place and
		// moved (rebuilt or regrown), and sealed seconds of every width.
		if answered < 4000 || extended < 500 || moved < 50 || wide < 50 {
			t.Errorf("start %d: %d view answers, %d views extended in place, %d rebuilt or regrown, %d wide seconds: the walk misses a case",
				start, answered, extended, moved, wide)
		}
	}
}

// TestSealedSketchCases: the packed sketch at the edges of its three
// count widths, and a second that has no sketch at all.
func TestSealedSketchCases(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for _, tc := range []struct {
		n     int
		width uint8
	}{{1, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {1 << 20, 4}} {
		s := newSeries()
		burst(s, base, 40, tc.n)                    // one bin holds all n
		burst(s, base.Add(time.Second), 40, 3)      // a narrow neighbour on each side
		burst(s, base.Add(2*time.Second), 4000, 1)  // of the wide second's bytes
		burst(s, base.Add(-time.Second), 0.0001, 2) // late: the view is rebuilt, not extended
		burst(s, base.Add(3*time.Second), 40, 1)
		label := fmt.Sprintf("%d counts in one bin", tc.n)
		s.mu.Lock()
		checkViewAgainstRing(t, s, label)
		got := s.sealed.seconds[1].width
		s.mu.Unlock()
		if got != tc.width {
			t.Errorf("%s: packed at width %d, want %d", label, got, tc.width)
		}
		for _, back := range []time.Duration{-time.Second, 0, time.Second, 3 * time.Second} {
			if since := base.Add(back); servedFromView(s, since) {
				checkReduceAgainstRing(t, s, since, fmt.Sprintf("%s, window from %v", label, back))
			} else {
				t.Errorf("%s: window from %v not answered by the view", label, back)
			}
		}
	}

	// A second restored without a sketch (LoadSnapshot only restores the
	// coarser rings; the bucket type and the view are the same on all
	// three, so the seconds ring is held to the same rule): inside the
	// window it counts exactly and makes a quantile ErrNoData, from the
	// view as from the ring.
	s := newSeries()
	for i := 0; i < 6; i++ {
		burst(s, base.Add(time.Duration(i)*time.Second), 10+float64(i), 2)
	}
	s.mu.Lock()
	s.restoreLocked(tierSecond, []snapshotBucket{{
		Idx: base.Unix() + 2, Count: 4, Sum: 100, Min: 20, Max: 30,
		FirstAt: base.UnixNano() + 2e9, LastAt: base.UnixNano() + 2e9 + 5,
	}})
	s.stale = true // as the late write it is
	s.mu.Unlock()
	burst(s, base.Add(6*time.Second), 16, 2)
	s.mu.Lock()
	checkViewAgainstRing(t, s, "restored second")
	s.mu.Unlock()
	for _, tc := range []struct {
		back      time.Duration
		count     float64
		quantiles bool
	}{{0, 16, false}, {2 * time.Second, 12, false}, {3 * time.Second, 8, true}} {
		since := base.Add(tc.back)
		if !servedFromView(s, since) {
			t.Fatalf("window from %v not answered by the view", tc.back)
		}
		checkReduceAgainstRing(t, s, since, fmt.Sprintf("restored second, window from %v", tc.back))
		a := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
		s.reduce(since, &a)
		if c, err := a.value(AggCount); err != nil || c != tc.count {
			t.Errorf("window from %v: count %v, %v; want %v", tc.back, c, err, tc.count)
		}
		if _, err := a.value(AggP95); tc.quantiles != (err == nil) || (err != nil && !errors.Is(err, ErrNoData)) {
			t.Errorf("window from %v: p95 err = %v; answerable: %v", tc.back, err, tc.quantiles)
		}
	}
}

// FuzzSealedSketch: arbitrary per-second histograms, sealed into the
// view as they finish (extended, trimmed, regrown, rebuilt after late
// writes), merge from the view exactly as the dense buckets merge from
// the ring. Five input bytes make one burst: how far to advance (or
// how late to write), the value's bin, and a 24-bit count.
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
	f.Add(append(boundaries, append(op(0x80, 100, 65536), boundaries...)...))  // a rebuild among wide seconds
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newSeries()
		now := int64(1_700_000_000)
		for ; len(data) >= 5 && now < 1_700_000_000+4*secondSlots; data = data[5:] {
			sec := now
			if step := int64(data[0]); step < 0x80 {
				now += step // 0: the current second again
				sec = now
			} else {
				sec = now - (step - 0x7f) // late by 1 … 128 s
			}
			v := histValue(int(data[1]) % histSize)
			burst(s, time.Unix(sec, 0), v, 1+int(data[2])|int(data[3])<<8|int(data[4])<<16)
		}
		burst(s, time.Unix(now+1, 0), 1, 1) // seal the last second, rebuild if stale
		s.mu.Lock()
		checkViewAgainstRing(t, s, "view")
		s.mu.Unlock()
		for _, back := range []int64{0, 1, 5, 60, secondSlots - 1} {
			if since := time.Unix(now+1-back, 0); servedFromView(s, since) {
				checkReduceAgainstRing(t, s, since, fmt.Sprintf("window -%ds", back))
			}
		}
	})
}

// TestSealedStaleViewsStayImmutable: successive views share their two
// backing arrays, so a reader still holding an old view reads memory
// the writer is appending next to. Each second here has a content that
// follows from its index — every eleventh one a burst that needs
// two-byte counts; readers re-verify every summary and every packed bin
// of views they copied up to 160 seconds ago, and windowed queries
// through the public path, while the writer seals thousands of seconds
// through dozens of regrows. Run under -race, an append that landed
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
	writeSecond := func(sec int64) { burst(s, time.Unix(sec, 0), value(sec), int(count(sec))) }
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
			var held []sealedView // oldest first; stale by up to len(held) seconds
			heldNewest := int64(math.MinInt64)
			for !stop.Load() {
				s.mu.Lock()
				v := s.sealed
				s.mu.Unlock()
				newest := v.seconds[len(v.seconds)-1].idx
				if newest != heldNewest {
					heldNewest = newest
					held = append(held, v)
					if len(held) > 160 { // two regrows of a full ring's view
						held = held[1:]
					}
				}
				for h := 0; h < len(held); h += 20 {
					v := &held[h]
					prev := int64(math.MinInt64)
					for i := range v.seconds {
						b := &v.seconds[i]
						n := count(b.idx)
						var want [histSize]uint64
						want[histIndex(value(b.idx))] = uint64(n)
						if b.idx <= prev || b.count != n || b.sum != value(b.idx)+float64(n-1)*value(b.idx) ||
							b.min != value(b.idx) || b.max != value(b.idx) || v.dense(i) != want {
							t.Errorf("held view (newest %d) element %d changed under its reader: %+v", v.seconds[len(v.seconds)-1].idx, i, *b)
							return
						}
						prev = b.idx
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
		if p := &s.sealed.bins[:1][0]; p != slab { // the writer's own field: no lock needed to read it
			slabs, slab = slabs+1, p
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if slabs < minSeconds/100 {
		t.Errorf("the slab moved %d times in %d seconds: the readers saw too few regrows", slabs, next-base.Unix())
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
