package metrics

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

var (
	t0      = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	scopeV1 = Scope{Service: "catalog", Version: "v1"}
	scopeV2 = Scope{Service: "catalog", Version: "v2", Variant: "canary"}
)

func TestScopeString(t *testing.T) {
	if got := scopeV1.String(); got != "catalog/v1" {
		t.Errorf("Scope.String = %q", got)
	}
	if got := scopeV2.String(); got != "catalog/v2/canary" {
		t.Errorf("Scope.String = %q", got)
	}
}

func TestParseAggregation(t *testing.T) {
	tests := []struct {
		in      string
		want    Aggregation
		wantErr bool
	}{
		{"mean", AggMean, false},
		{"avg", AggMean, false},
		{"P95", AggP95, false},
		{"p50", AggMedian, false},
		{"rate", AggRate, false},
		{"bogus", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseAggregation(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAggregation(%q) err = %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("ParseAggregation(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAggregationString(t *testing.T) {
	for _, a := range []Aggregation{AggMean, AggMedian, AggP95, AggP99, AggMin, AggMax, AggCount, AggSum, AggRate} {
		s := a.String()
		back, err := ParseAggregation(s)
		if err != nil || back != a {
			t.Errorf("round trip %v -> %q -> %v (%v)", a, s, back, err)
		}
	}
	if Aggregation(99).String() == "" {
		t.Error("unknown aggregation should still produce a string")
	}
}

func TestRecordAndQueryAggregations(t *testing.T) {
	st := NewStore(0)
	vals := []float64{10, 20, 30, 40, 50}
	for i, v := range vals {
		st.Record("response_time", scopeV1, t0.Add(time.Duration(i)*time.Second), v)
	}
	// Streaming aggregates are exact.
	exact := []struct {
		agg  Aggregation
		want float64
	}{
		{AggMean, 30},
		{AggMin, 10},
		{AggMax, 50},
		{AggCount, 5},
		{AggSum, 150},
	}
	for _, tt := range exact {
		got, err := st.Query("response_time", scopeV1, t0, tt.agg)
		if err != nil {
			t.Fatalf("%v: %v", tt.agg, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Query(%v) = %v, want %v", tt.agg, got, tt.want)
		}
	}
	// Percentiles come from the histogram sketch: bounded relative error
	// (√γ−1 ≈ 5%) around the exact type-7 quantile.
	approx := []struct {
		agg  Aggregation
		want float64
	}{
		{AggMedian, 30},
		{AggP95, 48}, // type-7 quantile of 5 points
	}
	for _, tt := range approx {
		got, err := st.Query("response_time", scopeV1, t0, tt.agg)
		if err != nil {
			t.Fatalf("%v: %v", tt.agg, err)
		}
		if math.Abs(got-tt.want)/tt.want > 0.10 {
			t.Errorf("Query(%v) = %v, want %v ±10%%", tt.agg, got, tt.want)
		}
	}
}

func TestQuantileSketchAccuracy(t *testing.T) {
	// A dense series: the sketch's p95/p99 must land within its
	// documented relative-error bound of the exact sorted quantile.
	st := NewStore(0)
	const n = 20000
	obs := make([]observation, n)
	for i := range obs {
		// Latency-like values spread over two decades.
		obs[i] = observation{t0.Add(time.Duration(i) * time.Millisecond), 1 + 0.05*float64(i%2000)}
		st.Record("rt", scopeV1, obs[i].at, obs[i].value)
	}
	for _, agg := range []Aggregation{AggMedian, AggP95, AggP99} {
		got, err := st.Query("rt", scopeV1, t0, agg)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		want, _ := queryExact(obs, agg)
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("%v = %v, exact %v: outside 6%% bound", agg, got, want)
		}
	}
}

func TestQueryBeforeSecondsCoverage(t *testing.T) {
	// Observations further apart than the 1 s ring's coverage: a query
	// reaching back past it is answered from the minute ring and still
	// sees everything.
	st := NewStore(0)
	st.Record("rt", scopeV1, t0, 10)
	st.Record("rt", scopeV1, t0.Add(400*time.Second), 30) // > secondSlots seconds later
	got, err := st.Query("rt", scopeV1, time.Time{}, AggCount)
	if err != nil || got != 2 {
		t.Fatalf("full-history count = %v, %v; want 2", got, err)
	}
	if got, err := st.Query("rt", scopeV1, time.Time{}, AggMean); err != nil || got != 20 {
		t.Errorf("full-history mean = %v, %v; want 20", got, err)
	}
	// A recent window is answered from the 1 s ring and sees only the
	// observation it covers.
	if got, err := st.Query("rt", scopeV1, t0.Add(399*time.Second), AggCount); err != nil || got != 1 {
		t.Errorf("recent count = %v, %v; want 1", got, err)
	}
}

func TestRecordBatch(t *testing.T) {
	st := NewStore(0)
	batch := []Sample{
		{Metric: "rt", Scope: scopeV1, At: t0, Value: 10},
		{Metric: "rt", Scope: scopeV1, At: t0.Add(time.Second), Value: 20},
		{Metric: "requests", Scope: scopeV1, At: t0, Value: 1},
		{Metric: "rt", Scope: scopeV2, At: t0, Value: 99},
	}
	st.RecordBatch(batch)
	if got, err := st.Query("rt", scopeV1, t0, AggCount); err != nil || got != 2 {
		t.Errorf("rt/v1 count = %v, %v; want 2", got, err)
	}
	if got, err := st.Query("rt", scopeV1, t0, AggSum); err != nil || got != 30 {
		t.Errorf("rt/v1 sum = %v, %v; want 30", got, err)
	}
	if got, err := st.Query("requests", scopeV1, t0, AggCount); err != nil || got != 1 {
		t.Errorf("requests count = %v, %v; want 1", got, err)
	}
	if got, err := st.Query("rt", scopeV2, t0, AggMax); err != nil || got != 99 {
		t.Errorf("rt/v2 max = %v, %v; want 99", got, err)
	}
	if st.SeriesCount() != 3 {
		t.Errorf("SeriesCount = %d, want 3", st.SeriesCount())
	}
	st.RecordBatch(nil) // no-op
}

// TestSeriesCountAcrossPublishes: series created since the index was
// last published are counted and found as the ones published before
// them, and stay so once a walk publishes them.
func TestSeriesCountAcrossPublishes(t *testing.T) {
	st := NewStore(0)
	scope := func(i int) Scope { return Scope{Service: "svc", Version: fmt.Sprintf("v%d", i)} }
	for i := 0; i < 100; i++ {
		st.Record("rt", scope(i), t0, float64(i))
		if i == 49 {
			if got := st.Stats().Series; got != 50 { // publishes the first fifty
				t.Fatalf("Stats().Series = %d, want 50", got)
			}
		}
	}
	if st.dirty == nil {
		t.Fatal("the second fifty were published without a walk or a probe")
	}
	for _, when := range []string{"unpublished", "published"} {
		if st.SeriesCount() != 100 {
			t.Errorf("%s: SeriesCount = %d, want 100", when, st.SeriesCount())
		}
		for i := 0; i < 100; i++ {
			if got, err := st.Query("rt", scope(i), t0, AggMax); err != nil || got != float64(i) {
				t.Fatalf("%s: max of series %d = %v, %v", when, i, got, err)
			}
		}
		st.published()
	}
}

func TestQueryWindowFiltering(t *testing.T) {
	st := NewStore(0)
	for i := 0; i < 10; i++ {
		st.Record("rt", scopeV1, t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	// Only observations at t0+5s or later.
	got, err := st.Query("rt", scopeV1, t0.Add(5*time.Second), AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 { // mean of 5..9
		t.Errorf("windowed mean = %v, want 7", got)
	}
}

func TestQueryRate(t *testing.T) {
	st := NewStore(0)
	// 11 observations over 10 seconds -> 1.1/s.
	for i := 0; i <= 10; i++ {
		st.Record("req", scopeV1, t0.Add(time.Duration(i)*time.Second), 1)
	}
	got, err := st.Query("req", scopeV1, t0, AggRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.1) > 1e-9 {
		t.Errorf("rate = %v, want 1.1", got)
	}
	// A single observation has no rate.
	st2 := NewStore(0)
	st2.Record("req", scopeV1, t0, 1)
	if got, err := st2.Query("req", scopeV1, t0, AggRate); err != nil || got != 0 {
		t.Errorf("single-obs rate = %v, %v", got, err)
	}
}

func TestQueryNoData(t *testing.T) {
	st := NewStore(0)
	if _, err := st.Query("missing", scopeV1, t0, AggMean); !errors.Is(err, ErrNoData) {
		t.Errorf("missing series error = %v, want ErrNoData", err)
	}
	st.Record("rt", scopeV1, t0, 1)
	// Window after the only observation.
	if _, err := st.Query("rt", scopeV1, t0.Add(time.Hour), AggMean); !errors.Is(err, ErrNoData) {
		t.Errorf("empty window error = %v, want ErrNoData", err)
	}
	// Count over an empty window is 0, not an error.
	if got, err := st.Query("rt", scopeV1, t0.Add(time.Hour), AggCount); err != nil || got != 0 {
		t.Errorf("empty-window count = %v, %v", got, err)
	}
}

func TestScopeIsolation(t *testing.T) {
	st := NewStore(0)
	st.Record("rt", scopeV1, t0, 10)
	st.Record("rt", scopeV2, t0, 1000)
	got, err := st.Query("rt", scopeV1, t0, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("scope leakage: got %v", got)
	}
	if st.SeriesCount() != 2 {
		t.Errorf("SeriesCount = %d, want 2", st.SeriesCount())
	}
}

func TestReset(t *testing.T) {
	st := NewStore(0)
	st.Record("rt", scopeV1, t0, 1)
	st.Reset()
	if st.SeriesCount() != 0 {
		t.Error("Reset did not clear series")
	}
}

func TestConcurrentRecordQuery(t *testing.T) {
	st := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scope := Scope{Service: "svc", Version: "v1"}
			for i := 0; i < 1000; i++ {
				st.Record("rt", scope, t0.Add(time.Duration(i)*time.Millisecond), float64(i))
				if i%100 == 0 {
					_, _ = st.Query("rt", scope, t0, AggMean)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, err := st.Query("rt", Scope{Service: "svc", Version: "v1"}, t0, AggCount); err != nil || got == 0 {
		t.Errorf("after concurrent writes: count = %v, err = %v", got, err)
	}
}

// TestParallelRecordQueryReset exercises the store under -race:
// concurrent writers on many series, readers on both query paths, and
// periodic store-wide resets.
func TestParallelRecordQueryReset(t *testing.T) {
	st := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scope := Scope{Service: "svc", Version: fmt.Sprintf("v%d", g%4)}
			for i := 0; i < 2000; i++ {
				at := t0.Add(time.Duration(i) * time.Millisecond)
				if i%3 == 0 {
					st.RecordBatch([]Sample{
						{Metric: "rt", Scope: scope, At: at, Value: float64(i)},
						{Metric: "requests", Scope: scope, At: at, Value: 1},
					})
				} else {
					st.Record("rt", scope, at, float64(i))
				}
				if i%50 == 0 {
					_, _ = st.Query("rt", scope, t0, AggP95)
					_, _ = st.Query("rt", scope, t0, AggMean)
					_, _ = st.Query("rt", scope, time.Time{}, AggMax)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			st.Reset()
			_ = st.SeriesCount()
		}
	}()
	wg.Wait()
}

func TestUnsupportedAggregation(t *testing.T) {
	st := NewStore(0)
	st.Record("rt", scopeV1, t0, 1)
	if _, err := st.Query("rt", scopeV1, t0, Aggregation(99)); err == nil {
		t.Error("expected error for unknown aggregation")
	}
}

// TestQuantileUnderflowBound: zero/negative values collapse into the
// sketch's underflow bin, so a quantile whose rank falls there is only
// known to lie in [window min, min(histMin, window max)]; the exact
// aggregates are unaffected.
func TestQuantileUnderflowBound(t *testing.T) {
	st := NewStore(0)
	for i, v := range []float64{-5, -3, -1} {
		st.Record("delta", scopeV1, t0.Add(time.Duration(i)*time.Second), v)
	}
	if got, err := st.Query("delta", scopeV1, t0, AggMedian); err != nil || got < -5 || got > -1 {
		t.Errorf("median = %v, %v; want within [-5, -1]", got, err)
	}
	if got, err := st.Query("delta", scopeV1, t0, AggMin); err != nil || got != -5 {
		t.Errorf("min = %v, %v; want -5", got, err)
	}
	if got, err := st.Query("delta", scopeV1, t0, AggMean); err != nil || got != -3 {
		t.Errorf("mean = %v, %v; want -3", got, err)
	}
	// Mixed signs: the median's rank is still in the underflow bin, the
	// p99's is not and resolves through the sketch as usual.
	st.Record("delta", scopeV1, t0.Add(3*time.Second), 10)
	if got, err := st.Query("delta", scopeV1, t0, AggMedian); err != nil || got < -5 || got > histMin {
		t.Errorf("mixed median = %v, %v; want within [-5, %v]", got, err, histMin)
	}
	if got, err := st.Query("delta", scopeV1, t0, AggP99); err != nil || math.Abs(got-10)/10 > 0.05 {
		t.Errorf("mixed p99 = %v, %v; want 10 ±5%%", got, err)
	}
}

// TestFreshSeriesFootprint pins what a series costs by its age: one live
// bucket per tier when it is born, 288 B while its sketch counts in bytes;
// up to liveBuckets live buckets a tier and ~80 B in that tier's sealed
// view (sealed.go: a quarter spare, no floor) per finished second, minute
// and hour after that. The first four ages are written at eight samples a
// second of fifty values into 200 series; an hour and a day at two a
// second into 20. The measured bytes beside each row are this layout's,
// then those of dense four-byte live buckets (944 B each). The hot row
// writes a thousand samples of one value in its second, so all three
// buckets widen, to 288 B plus 880 B of high parts (the 896-byte size
// class) each: the series costs 19 % more than with dense buckets.
func TestFreshSeriesFootprint(t *testing.T) {
	for _, tc := range []struct {
		seconds, perSecond, values, n int
		limit                         int64
	}{
		{1, 8, 50, 200, 2 << 10},          // measured 1 319; dense 3 531
		{5, 8, 50, 200, 4 << 10},          // measured 2 711; dense 7 123
		{60, 8, 50, 200, 8 << 10},         // measured 6 711; dense 11 119
		{300, 8, 50, 200, 28 << 10},       // measured 26 237; dense 31 964
		{3600, 2, 50, 20, 32 << 10},       // measured 30 121; dense 35 900
		{24 * 3600, 2, 50, 20, 256 << 10}, // measured 170 442; dense 175 996
		{1, 1000, 1, 200, 4300},           // hot: measured 4 194; dense 3 530
	} {
		if raceEnabled && tc.seconds >= 3600 {
			continue // millions of instrumented writes; the plain run gates these rows
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := NewStore(0)
		for i := 0; i < tc.n; i++ {
			scope := Scope{Service: "svc", Version: fmt.Sprintf("v%d", i)}
			for k := 0; k < tc.seconds*tc.perSecond; k++ {
				st.Record("rt", scope, t0.Add(time.Duration(k)*time.Second/time.Duration(tc.perSecond)), 20+float64(k%tc.values))
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perSeries := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(tc.n)
		t.Logf("%d s at %d a second: %d B", tc.seconds, tc.perSecond, perSeries)
		if perSeries > tc.limit {
			t.Errorf("a series %d s old written %d times a second costs %d B, want <= %d", tc.seconds, tc.perSecond, perSeries, tc.limit)
		}
		runtime.KeepAlive(st)
	}
}
