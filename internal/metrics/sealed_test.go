package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// aggsNoQuantile are the aggregations the sealed fast path serves.
var aggsNoQuantile = []Aggregation{AggMean, AggMin, AggMax, AggCount, AggSum, AggRate}

// TestSealedQueryMatchesExact drives random multi-second write
// patterns and checks every fast-path aggregation against the oracle.
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
		for _, agg := range aggsNoQuantile {
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

// TestSealedLateWriteVisible checks the invalidate-then-reseal
// protocol: an out-of-order write into sealed history must be visible
// to the very next query (via the locked path) and stay visible after
// the next seal re-arms the fast path.
func TestSealedLateWriteVisible(t *testing.T) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 5; i++ {
		st.Record("rt", scope, base.Add(time.Duration(i)*time.Second), 10)
	}
	if got, _ := st.Query("rt", scope, base, AggCount); got != 5 {
		t.Fatalf("count before late write = %v, want 5", got)
	}
	// Late write into the already-sealed second #1.
	st.Record("rt", scope, base.Add(1*time.Second), 10)
	if got, _ := st.Query("rt", scope, base, AggCount); got != 6 {
		t.Fatalf("count right after late write = %v, want 6", got)
	}
	// A write in a fresh second reseals; the fast path must now carry
	// the late sample too.
	st.Record("rt", scope, base.Add(10*time.Second), 10)
	for i := 0; i < 3; i++ {
		if got, _ := st.Query("rt", scope, base, AggCount); got != 7 {
			t.Fatalf("count after reseal = %v, want 7", got)
		}
	}
}

// TestSealedQueryZeroAlloc pins the tentpole claim: aggregate queries
// over sealed data allocate nothing.
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
	for _, agg := range aggsNoQuantile {
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
// fixed `since` must never move backwards, and mean must stay inside
// the written value range — both would break if a reader ever saw a
// torn or lossy view/hot pair.
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
		if c > 0 {
			m, err := st.Query("rt", scope, base, AggMean)
			if err != nil {
				t.Fatal(err)
			}
			if m < 5 || m > 15 {
				t.Fatalf("mean %v outside written range [5,15)", m)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// collectSealed is the from-scratch sealed view: the summary of every
// bucket of the seconds ring that holds data before hotIdx, oldest
// first. Caller holds the series mutex.
func collectSealed(s *series, hotIdx int64) []summary {
	var out []summary
	r := &s.tiers[tierSecond]
	for idx := r.oldest(); idx < hotIdx; idx++ {
		if b := r.slots[r.slot(idx)]; b != nil && b.idx == idx && b.count > 0 {
			out = append(out, b.summary)
		}
	}
	return out
}

// TestSealedViewInvariant is the equivalence the lock-free read rests
// on, as a seeded property over one series driven through every kind of
// write: in order, into the current second, late into sealed history,
// older than the ring, across a gap larger than the ring, and around
// the ring many times, before and after 1970. After every write
//
//   - a view that is current (no late write since it was published) is,
//     element for element, what a rebuild from the ring would hold,
//     however many incremental extensions produced it;
//   - whenever reduceSealed answers, it answers bit for bit what the
//     locked ring.reduce does, for every window start tried: the same
//     buckets merged in the same order.
func TestSealedViewInvariant(t *testing.T) {
	for _, start := range []int64{1_700_000_000, -400, -2_000_000_000} {
		rng := rand.New(rand.NewSource(start))
		s := newSeries()
		now := start
		var answered, extended, rebuilt int
		var prevBacking *summary
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
			at := time.Unix(sec, rng.Int63n(int64(time.Second)))
			s.record(at, 5*math.Exp(rng.NormFloat64()))

			s.mu.Lock()
			v := s.view.Load()
			if v.hotIdx != s.curHotIdx {
				t.Fatalf("start %d step %d: view.hotIdx %d, series at %d", start, step, v.hotIdx, s.curHotIdx)
			}
			if v.lateSeq == s.lateSeq.Load() {
				want := collectSealed(s, v.hotIdx)
				if len(v.buckets) != len(want) {
					t.Fatalf("start %d step %d: view holds %d seconds, a rebuild %d", start, step, len(v.buckets), len(want))
				}
				for i := range want {
					if v.buckets[i] != want[i] {
						t.Fatalf("start %d step %d: view[%d] = %+v, a rebuild has %+v", start, step, i, v.buckets[i], want[i])
					}
				}
				if v.earliestIdx != s.earliest || v.latestIdx != s.tiers[tierSecond].latest {
					t.Fatalf("start %d step %d: view bounds (%d, %d), series (%d, %d)", start, step,
						v.earliestIdx, v.latestIdx, s.earliest, s.tiers[tierSecond].latest)
				}
			}
			if len(v.buckets) > 0 {
				if backing := &v.buckets[:cap(v.buckets)][cap(v.buckets)-1]; backing == prevBacking {
					extended++
				} else {
					rebuilt++
					prevBacking = backing
				}
			}
			for _, back := range []int64{0, 1, 7, 60, secondSlots - 1, secondSlots, 2 * secondSlots, -3} {
				since := time.Unix(now-back, 500)
				fast := accumulator{summary: emptySummary}
				if !s.reduceSealed(since, &fast) {
					continue
				}
				answered++
				locked := accumulator{summary: emptySummary}
				s.tiers[tierSecond].reduce(since, &locked)
				if fast.count != locked.count || math.Float64bits(fast.sum) != math.Float64bits(locked.sum) ||
					fast.summary != locked.summary {
					t.Fatalf("start %d step %d window -%ds: sealed %+v, locked %+v", start, step, back, fast.summary, locked.summary)
				}
				for _, agg := range aggsNoQuantile {
					fv, ferr := fast.value(agg)
					lv, lerr := locked.value(agg)
					if math.Float64bits(fv) != math.Float64bits(lv) || ferr != lerr {
						t.Fatalf("start %d step %d window -%ds %v: sealed %v, %v; locked %v, %v", start, step, back, agg, fv, ferr, lv, lerr)
					}
				}
			}
			s.mu.Unlock()
		}
		// Not vacuous: the fast path answered, and views were both
		// extended in place and rebuilt.
		if answered < 4000 || extended < 500 || rebuilt < 50 {
			t.Errorf("start %d: %d sealed answers, %d views extended in place, %d rebuilt or regrown: the walk misses a case",
				start, answered, extended, rebuilt)
		}
	}
}

// TestSealedStaleViewsStayImmutable: successive views share a backing
// array, so a reader still holding an old view reads memory the writer
// is appending next to. Each second here has a content that follows
// from its index; readers re-verify every element of views they loaded
// up to 160 seconds ago, and windowed queries through the
// public path, while the writer seals thousands of seconds through
// many capacity regrows. Run under -race, an append that landed inside
// a published view's length is a reported race; without it, a torn or
// overwritten element fails the content check.
func TestSealedStaleViewsStayImmutable(t *testing.T) {
	const perSecond, readers, minSeconds, minChecks = 3, 2, 2000, 100
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	value := func(sec int64) float64 { return float64(1 + sec%7) }
	writeSecond := func(sec int64) {
		for k := 0; k < perSecond; k++ {
			st.Record("rt", scope, time.Unix(sec, int64(k)), value(sec))
		}
	}
	next := base.Unix()
	for ; next < base.Unix()+20; next++ {
		writeSecond(next)
	}
	s := st.getOrCreate(seriesKey("rt", scope))

	var stop atomic.Bool
	var checks [readers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []*sealedView // oldest first; stale by up to len(held) publishes
			for !stop.Load() {
				if v := s.view.Load(); len(held) == 0 || held[len(held)-1] != v {
					held = append(held, v)
					if len(held) > 160 { // two regrows of a full ring's view
						held = held[1:]
					}
				}
				for h := 0; h < len(held); h += 20 {
					v := held[h]
					prev := int64(math.MinInt64)
					for i := range v.buckets {
						b := v.buckets[i]
						if b.idx <= prev || b.idx >= v.hotIdx || b.count != perSecond ||
							b.sum != perSecond*value(b.idx) || b.min != value(b.idx) || b.max != value(b.idx) {
							t.Errorf("stale view (hotIdx %d) element %d changed under its reader: %+v", v.hotIdx, i, b)
							return
						}
						prev = b.idx
					}
				}
				// The public path over the live pair: the ten seconds before
				// the newest one this reader has seen are sealed and whole.
				latest := held[len(held)-1].latestIdx
				c, err := st.Query("rt", scope, time.Unix(latest-10, 0), AggCount)
				if err != nil || c < 10*perSecond {
					t.Errorf("count since 10 s before second %d = %v, %v; want >= %d", latest, c, err, 10*perSecond)
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
	for ; next < base.Unix()+minSeconds || (!enough() && !t.Failed()); next++ {
		writeSecond(next)
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
}
