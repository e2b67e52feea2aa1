package metrics

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIndexInvariantUnderMaintain runs everything that reads or changes
// the series index at once — creators of fresh series, RecordBatch
// writers, Query readers, SeriesCount and Stats walks, and Maintain
// evicting series left idle on purpose — and holds the store to three
// rules:
//   - no series written after the cutoff is dropped: its count is every
//     sample written to it, also for series created while Maintain was
//     publishing;
//   - every idle series nobody wrote to again is gone;
//   - no write lands in a series Maintain has evicted: an evicted series
//     holds its idle sample alone, and the writes that raced its
//     eviction are all in its replacement.
//
// A write to an idle series before the pass judges it keeps the series;
// one after finds it marked and must follow it to the replacement the
// pass publishes.
func TestIndexInvariantUnderMaintain(t *testing.T) {
	const (
		rounds, nIdle, fresh = 40, 64, 50
		nLive, batch         = 64, 32
	)
	st := NewStore(0)
	old := t0
	now := t0.Add(48 * time.Hour)
	const idleFor = 24 * time.Hour
	scope := func(kind string, i int) Scope {
		return Scope{Tenant: "t", Service: fmt.Sprintf("%s-%04d", kind, i), Version: "v1"}
	}
	live := make([]Scope, nLive)
	for i := range live {
		live[i] = scope("live", i)
		st.Record("rt", live[i], now, 1)
	}
	var liveWrites [nLive]atomic.Int64
	for i := range liveWrites {
		liveWrites[i].Store(1)
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var background sync.WaitGroup
	// A writer of 32-sample batches over the live series.
	background.Add(1)
	go func() {
		defer background.Done()
		samples := make([]Sample, batch)
		for b := 0; !stopped(); b++ {
			for k := range samples {
				i := (b + k) % nLive
				samples[k] = Sample{Metric: "rt", Scope: live[i], At: now, Value: 2}
				liveWrites[i].Add(1)
			}
			st.RecordBatch(samples)
		}
	}()
	// A reader: a live series' count never goes down.
	var readErr atomic.Value
	background.Add(1)
	go func() {
		defer background.Done()
		var seen [nLive]float64
		for i := 0; !stopped(); i++ {
			n, err := st.Query("rt", live[i%nLive], old.Add(-time.Hour), AggCount)
			if err != nil || n < seen[i%nLive] {
				readErr.Store(fmt.Sprintf("live series %d: count %v after %v, err %v", i%nLive, n, seen[i%nLive], err))
				return
			}
			seen[i%nLive] = n
		}
	}()
	// The walks.
	background.Add(1)
	go func() {
		defer background.Done()
		for !stopped() {
			_ = st.SeriesCount()
			_ = st.Stats()
		}
	}()

	// Each round: 64 series left idle, then at once a Maintain pass, a
	// creator of 50 fresh series (three writes each, one at a time) and a
	// writer going round the even idle series until the pass is over.
	idle := make([]Scope, 0, rounds*nIdle)
	before := make([]*series, 0, rounds*nIdle) // each idle series as the pass found it
	revivedWrites := make([]int, rounds*nIdle)
	for round := 0; round < rounds; round++ {
		first := len(idle)
		for i := 0; i < nIdle; i++ {
			s := scope("idle", first+i)
			st.Record("rt", s, old, 1)
			idle = append(idle, s)
			before = append(before, st.lookupBytes([]byte(seriesKey("rt", s))))
		}
		started, passed := make(chan struct{}), make(chan struct{})
		go func() {
			close(started)
			st.Maintain(now, idleFor)
			close(passed)
		}()
		var creator sync.WaitGroup
		creator.Add(1)
		go func() {
			defer creator.Done()
			for i := round * fresh; i < (round+1)*fresh; i++ {
				for k := 0; k < 3; k++ {
					st.RecordBatch([]Sample{{Metric: "rt", Scope: scope("fresh", i), At: now, Value: 4}})
				}
			}
		}()
		<-started
		for done := false; !done; {
			select {
			case <-passed:
				done = true // one more lap after the pass
			default:
			}
			for i := first; i < first+nIdle; i += 2 {
				st.RecordBatch([]Sample{{Metric: "rt", Scope: idle[i], At: now, Value: 3}})
				revivedWrites[i]++
			}
		}
		creator.Wait()
	}
	close(stop)
	background.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	count := func(s Scope) (float64, error) { return st.Query("rt", s, old.Add(-time.Hour), AggCount) }
	for i, s := range live {
		if n, err := count(s); err != nil || n != float64(liveWrites[i].Load()) {
			t.Errorf("live series %d: count %v, %v; want %d", i, n, err, liveWrites[i].Load())
		}
	}
	for i := 0; i < rounds*fresh; i++ {
		if n, err := count(scope("fresh", i)); err != nil || n != 3 {
			t.Errorf("fresh series %d: count %v, %v; want 3", i, n, err)
		}
	}
	evicted, revived := 0, 0
	for i, s := range idle {
		orphan := before[i]
		a := accumulator{summary: emptySummary}
		orphan.reduce(old.Add(-time.Hour), &a)
		held, _ := a.value(AggCount)
		n, err := count(s)
		switch writes := revivedWrites[i]; {
		case writes == 0:
			if !errors.Is(err, ErrNoData) || !orphan.evicted {
				t.Errorf("idle series %d: count %v, %v after Maintain; want it evicted", i, n, err)
			}
		case orphan.evicted:
			evicted++
			if held != 1 || err != nil || n != float64(writes) {
				t.Errorf("revived series %d: the evicted one holds %v samples (want its 1 idle one), its replacement %v, %v (want %d)",
					i, held, n, err, writes)
			}
		default: // written before the pass judged it, so kept
			revived++
			if err != nil || n != float64(writes)+1 {
				t.Errorf("revived series %d, never evicted: count %v, %v; want %d", i, n, err, writes+1)
			}
		}
	}
	if want := nLive + rounds*fresh + rounds*nIdle/2; st.SeriesCount() != want {
		t.Errorf("SeriesCount = %d, want %d", st.SeriesCount(), want)
	}
	t.Logf("of %d series written during their eviction pass, %d were kept and %d replaced", rounds*nIdle/2, revived, evicted)
}

// TestSeriesCreationIsAmortizedConstant: creating a series costs about
// the same in a store of 10⁵ series as in one of 10³. Both sides make 10⁵
// series and keep them, so the collector's share is alike: one store of
// 10⁵ against a hundred stores of 10³. An index that copied its map on
// every insert would make the 10⁵th series cost a hundred times the
// 1 000th, in bytes allocated and in time. Bytes are the gate at 2×: they
// do not vary from run to run. Time is gated at 3×, leaving room for the
// cache misses of a map of 10⁵ (1.3–2.0× measured, on two cores with
// another test binary running beside), and a run stops as soon as it is
// past that.
func TestSeriesCreationIsAmortizedConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector's instrumentation")
	}
	const total = 100_000
	keys := make([]string, total)
	for i := range keys {
		keys[i] = seriesKey("rt", Scope{Service: fmt.Sprintf("svc-%06d", i), Version: "v1"})
	}
	type cost struct {
		took  time.Duration
		bytes uint64
	}
	// run makes total series in stores of size each and returns their
	// cost a series. A run past budget stops there.
	run := func(size int, budget time.Duration) cost {
		var stores []*Store // every series stays alive to the end of the run
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		made := 0
		for made < total {
			if made%size == 0 {
				stores = append(stores, NewStore(0))
			}
			stores[len(stores)-1].getOrCreate(keys[made%size])
			made++
			if budget > 0 && made%1024 == 0 && time.Since(start) > budget {
				break
			}
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(stores)
		return cost{took / time.Duration(made), (after.TotalAlloc - before.TotalAlloc) / uint64(made)}
	}
	// The best of five runs a side, taken in turn so drift in the
	// machine's speed reaches both.
	best := func(a, b cost) cost { return cost{min(a.took, b.took), min(a.bytes, b.bytes)} }
	small, large := cost{1<<63 - 1, 1<<64 - 1}, cost{1<<63 - 1, 1<<64 - 1}
	for range 5 {
		small = best(small, run(1_000, 0))
		large = best(large, run(total, 3*small.took*total))
	}
	t.Logf("per series: %v and %d B in stores of 10³, %v and %d B in one of 10⁵", small.took, small.bytes, large.took, large.bytes)
	if large.bytes > 2*small.bytes {
		t.Errorf("a series allocates %d B in a store of 10⁵, more than twice the %d B it allocates in stores of 10³", large.bytes, small.bytes)
	}
	if large.took > 3*small.took {
		t.Errorf("a series costs %v in a store of 10⁵, more than three times the %v it costs in stores of 10³", large.took, small.took)
	}
}
