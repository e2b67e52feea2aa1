package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The reference implementation the store is checked against: keep every
// observation, filter the window, reduce exactly. The store itself
// retains no raw observations; tests feed the oracle the samples they
// wrote.

type observation struct {
	at    time.Time
	value float64
}

// windowOf returns the observations at or after since, time-sorted so
// queryExact's rate (first-to-last element span) is the window's
// earliest-to-latest span.
func windowOf(all []observation, since time.Time) []observation {
	var w []observation
	for _, o := range all {
		if !o.at.Before(since) {
			w = append(w, o)
		}
	}
	sort.Slice(w, func(i, j int) bool { return w[i].at.Before(w[j].at) })
	return w
}

func sortedValues(obs []observation) []float64 {
	vals := make([]float64, len(obs))
	for i, o := range obs {
		vals[i] = o.value
	}
	sort.Float64s(vals)
	return vals
}

func quantileTarget(agg Aggregation) float64 {
	switch agg {
	case AggMedian:
		return 0.5
	case AggP95:
		return 0.95
	default:
		return 0.99
	}
}

// queryExact aggregates a time-sorted window of raw observations.
func queryExact(obs []observation, agg Aggregation) (float64, error) {
	if len(obs) == 0 && agg != AggCount && agg != AggRate && agg != AggSum {
		return 0, ErrNoData
	}
	switch agg {
	case AggCount:
		return float64(len(obs)), nil
	case AggSum:
		var sum float64
		for _, o := range obs {
			sum += o.value
		}
		return sum, nil
	case AggRate:
		if len(obs) < 2 {
			return 0, nil
		}
		span := obs[len(obs)-1].at.Sub(obs[0].at).Seconds()
		if span <= 0 {
			return 0, nil
		}
		return float64(len(obs)) / span, nil
	case AggMean:
		var sum float64
		for _, o := range obs {
			sum += o.value
		}
		return sum / float64(len(obs)), nil
	case AggMin:
		m := obs[0].value
		for _, o := range obs[1:] {
			if o.value < m {
				m = o.value
			}
		}
		return m, nil
	case AggMax:
		m := obs[0].value
		for _, o := range obs[1:] {
			if o.value > m {
				m = o.value
			}
		}
		return m, nil
	case AggMedian, AggP95, AggP99:
		return quantileSorted(sortedValues(obs), quantileTarget(agg)), nil
	default:
		return 0, fmt.Errorf("metrics: unsupported aggregation %v", agg)
	}
}

// quantileSorted is the type-7 interpolation stats.Quantile uses, over
// an ascending slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(h)
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

var allAggs = []Aggregation{AggMean, AggMedian, AggP95, AggP99, AggMin, AggMax, AggCount, AggSum, AggRate}

// checkAgainstOracle compares one store answer with the oracle over the
// same window: non-quantiles exactly (up to summation order), quantiles
// within the sketch's 5% of the two order statistics the exact type-7
// quantile interpolates between.
func checkAgainstOracle(t *testing.T, st *Store, all []observation, since time.Time, label string) {
	t.Helper()
	checkAggsAgainstOracle(t, st, all, since, label, allAggs)
}

// exactAggs are the aggregations a bucket answers without its sketch —
// all a window holding restored buckets can be held to.
var exactAggs = []Aggregation{AggMean, AggMin, AggMax, AggCount, AggSum, AggRate}

func checkAggsAgainstOracle(t *testing.T, st *Store, all []observation, since time.Time, label string, aggs []Aggregation) {
	t.Helper()
	window := windowOf(all, since)
	sorted := sortedValues(window)
	for _, agg := range aggs {
		got, err := st.Query("rt", scopeV1, since, agg)
		want, wantErr := queryExact(window, agg)
		switch {
		case !errors.Is(err, wantErr):
			t.Errorf("%s %v: err = %v, oracle err = %v", label, agg, err, wantErr)
		case err != nil:
		case !isQuantile(agg):
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s %v: store = %v, oracle = %v (%d samples)", label, agg, got, want, len(window))
			}
		default:
			h := quantileTarget(agg) * float64(len(sorted)-1)
			lo, hi := sorted[int(h)], sorted[int(math.Ceil(h))]
			if got < lo*0.95 || got > hi*1.05 {
				t.Errorf("%s %v: store = %v, outside 5%% of oracle %v (order statistics [%v, %v], %d samples)",
					label, agg, got, want, lo, hi, len(window))
			}
		}
	}
}

// TestTiersMatchOracle is the tier-equivalence property: a random
// stream spanning more than the minute ring's 24 h, with out-of-order
// samples and samples later than each ring's reach, answers every
// aggregation like the oracle at windows aligned to the ring that
// serves them — including quantiles over windows older than the 1 s
// ring.
func TestTiersMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(0)
		base := time.Unix(1_700_000_000, 0).Truncate(time.Hour)
		var all []observation
		record := func(at time.Time) {
			v := 5 * math.Exp(rng.NormFloat64()) // latency-like, strictly positive
			st.Record("rt", scopeV1, at, v)
			all = append(all, observation{at, v})
		}
		// now advances 30 h in random steps; most samples land at now,
		// the rest late by anything from milliseconds to 26 h (beyond
		// the 1 s ring's 256 s and the minute ring's 24 h).
		now, end := base, base.Add(30*time.Hour)
		lateness := []time.Duration{5 * time.Second, 10 * time.Minute, 5 * time.Hour, 26 * time.Hour}
		checkAt := base.Add(9 * time.Hour)
		for now.Before(end) {
			now = now.Add(time.Duration(rng.Int63n(int64(12 * time.Second))))
			for k := rng.Intn(4); k >= 0; k-- {
				at := now
				if rng.Intn(5) == 0 {
					at = now.Add(-time.Duration(rng.Int63n(int64(lateness[rng.Intn(len(lateness))]))))
				}
				if !at.Before(base) {
					record(at)
				}
			}
			if now.Before(checkAt) {
				continue
			}
			checkAt = checkAt.Add(7 * time.Hour)
			// Order is immaterial to the oracle; pre-sorting makes each
			// window's own sort a linear pass.
			sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
			label := fmt.Sprintf("seed %d at +%v", seed, now.Sub(base).Round(time.Minute))
			for _, w := range []struct {
				back  time.Duration
				align time.Duration
			}{
				{10 * time.Second, time.Second}, {100 * time.Second, time.Second}, {250 * time.Second, time.Second},
				{10 * time.Minute, time.Minute}, {time.Hour, time.Minute}, {8 * time.Hour, time.Minute}, {23 * time.Hour, time.Minute},
				{25 * time.Hour, time.Hour}, {29 * time.Hour, time.Hour}, {1000 * time.Hour, time.Hour},
			} {
				since := now.Add(-w.back).Truncate(w.align)
				checkAgainstOracle(t, st, all, since, fmt.Sprintf("%s window %v", label, w.back))
			}
		}
	}
}

// TestLateSampleReachesCoarserRings is the regression for samples more
// than 256 s behind the newest one: the 1 s ring is past them, but the
// minute and hour rings still reach that far and must count them.
func TestLateSampleReachesCoarserRings(t *testing.T) {
	st := NewStore(0)
	for i := 0; i < 700; i++ {
		st.Record("rt", scopeV1, t0.Add(600*time.Second+time.Duration(i)*100*time.Millisecond), 10)
	}
	since := t0.Add(-time.Hour)
	if got, err := st.Query("rt", scopeV1, since, AggCount); err != nil || got != 700 {
		t.Fatalf("count before the late sample = %v, %v; want 700", got, err)
	}
	st.Record("rt", scopeV1, t0, 1000) // ten minutes late
	if got, err := st.Query("rt", scopeV1, since, AggCount); err != nil || got != 701 {
		t.Errorf("count after the late sample = %v, %v; want 701", got, err)
	}
	if got, err := st.Query("rt", scopeV1, since, AggMax); err != nil || got != 1000 {
		t.Errorf("max after the late sample = %v, %v; want 1000", got, err)
	}
	// A window inside the 1 s ring still excludes it.
	if got, err := st.Query("rt", scopeV1, t0.Add(600*time.Second), AggCount); err != nil || got != 700 {
		t.Errorf("recent count = %v, %v; want 700", got, err)
	}
}

// TestCurrentBucketOrdersMatchOracle drives the write orders that
// tier.at's cached newest bucket could get wrong, on all three tiers at
// once (every step below crosses a second, a minute and an hour
// boundary together, or jumps a whole ring length of the tier named),
// through Record and as one RecordBatch (whose resolved-time memo sees
// the same orders), and holds every aggregation to the oracle over
// windows each ring serves.
func TestCurrentBucketOrdersMatchOracle(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).Truncate(time.Hour).Add(time.Hour)
	ringSpan := map[string]time.Duration{
		"second": secondSlots * time.Second, "minute": minuteSlots * time.Minute, "hour": hourSlots * time.Hour,
	}
	type step struct {
		at time.Duration // offset from base
		v  float64
	}
	orders := map[string][]step{
		// The late sample belongs to the previous second, minute and
		// hour: it must not land in the cached newest bucket, nor evict it.
		"late sample for latest-1 between two for latest": {
			{0, 10}, {-time.Second, 20}, {0, 30}, {-time.Second, 40}, {0, 50},
		},
		"latest again after a late sample far back": {
			{0, 10}, {time.Second, 11}, {-3 * time.Hour, 20}, {time.Second, 12}, {-200 * time.Second, 21}, {time.Second, 13},
		},
	}
	for tier, span := range ringSpan {
		// Past the ring's length: every bucket it held is out of reach and
		// the newest lands in a slot some older bucket still occupies.
		orders["advance past the "+tier+" ring, then the new latest"] = []step{
			{0, 10}, {time.Second, 11}, {span + 90*time.Minute + 7*time.Second, 20}, {span + 90*time.Minute + 7*time.Second, 21},
			{span + 90*time.Minute + 6*time.Second, 22}, {span + 90*time.Minute + 7*time.Second, 23},
		}
		// Exactly the ring's length: the newest bucket's slot is the one
		// the cached bucket sits in, which must be emptied, not added to.
		orders["wrap the "+tier+" ring onto the cached slot"] = []step{
			{0, 10}, {0, 11}, {span, 20}, {span, 21}, {2 * span, 30}, {2*span - time.Second, 31}, {2 * span, 32},
		}
	}
	windows := []struct{ back, align time.Duration }{
		{0, time.Second}, {5 * time.Second, time.Second}, {100 * time.Second, time.Second}, {250 * time.Second, time.Second},
		{10 * time.Minute, time.Minute}, {3 * time.Hour, time.Minute}, {23 * time.Hour, time.Minute},
		{30 * time.Hour, time.Hour}, {300 * time.Hour, time.Hour},
	}
	for name, steps := range orders {
		for _, mode := range []string{"Record", "RecordBatch"} {
			st := NewStore(0)
			var all []observation
			var batch []Sample
			newest := base
			for _, sp := range steps {
				at := base.Add(sp.at)
				if at.After(newest) {
					newest = at
				}
				all = append(all, observation{at, sp.v})
				batch = append(batch, Sample{Metric: "rt", Scope: scopeV1, At: at, Value: sp.v})
				if mode == "Record" {
					st.Record("rt", scopeV1, at, sp.v)
				}
			}
			if mode == "RecordBatch" {
				st.RecordBatch(batch)
			}
			for _, w := range windows {
				since := newest.Add(-w.back).Truncate(w.align)
				checkAgainstOracle(t, st, all, since, fmt.Sprintf("%s (%s) window %v", name, mode, w.back))
			}
		}
	}
}

// TestEvictedSeriesStartsOver: Maintain drops an idle series with its
// rings and their cached buckets; the next write for the same key builds
// a series that holds that write alone.
func TestEvictedSeriesStartsOver(t *testing.T) {
	st := NewStore(0)
	for i := 0; i < 5; i++ {
		st.Record("rt", scopeV1, t0.Add(time.Duration(i)*time.Second), 100)
	}
	if n := st.Maintain(t0.Add(48*time.Hour), 24*time.Hour); n != 1 {
		t.Fatalf("Maintain evicted %d series, want 1", n)
	}
	// Same second, minute and hour as the evicted series' newest bucket.
	again := []observation{{t0.Add(4 * time.Second), 7}, {t0.Add(4 * time.Second), 9}}
	st.RecordBatch([]Sample{
		{Metric: "rt", Scope: scopeV1, At: again[0].at, Value: again[0].value},
		{Metric: "rt", Scope: scopeV1, At: again[1].at, Value: again[1].value},
	})
	for _, since := range []time.Time{t0.Add(4 * time.Second), t0, t0.Add(-time.Hour), t0.Add(-100 * time.Hour)} {
		checkAgainstOracle(t, st, again, since, fmt.Sprintf("re-created series since %v", since.Sub(t0)))
	}
}
