package metrics

import (
	"math/rand"
	"sync"
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
