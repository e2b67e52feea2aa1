package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fillRing writes two samples into every third-but-one bucket index of
// [base, base+reach+10], so the tier wraps (the first eleven indices
// fall out of reach and are trimmed off the view) and has gaps. It
// returns what it wrote, keyed by bucket index.
func fillRing(r *tier, base int64) map[int64][]float64 {
	wrote := make(map[int64][]float64)
	for idx := base; idx <= base+r.reach+10; idx++ {
		if (idx-base)%3 == 2 {
			continue
		}
		for k := int64(0); k < 2; k++ {
			v := float64(10 + (idx-base)%50 + k)
			ns := (idx*r.width + k) * int64(time.Second)
			b, bin := r.at(idx), histIndex(v)
			b.add(ns, v, bin)
			b.tally(bin)
			wrote[idx] = append(wrote[idx], v)
		}
	}
	return wrote
}

// reduceTier runs the series read path over one tier alone: as the hour
// tier of a series whose finer tiers are empty, it answers every window.
func reduceTier(r *tier, since time.Time, a *accumulator) {
	s := &series{earliest: math.MaxInt64}
	s.tiers[tierHour] = *r
	s.reduce(since, a)
	*r = s.tiers[tierHour]
}

// TestReduceWindowWalk checks the window a read takes on all three
// widths, before and after 1970: a window start inside a bucket takes
// the bucket whole, one before the tier's reach takes what the tier
// still holds and nothing a recycled live slot lingers with, one after
// the newest bucket takes nothing. The expectation is a filter over
// what was written, merged in index order.
func TestReduceWindowWalk(t *testing.T) {
	for _, tier := range []struct {
		width time.Duration
		slots int
	}{{time.Second, secondSlots}, {time.Minute, minuteSlots}, {time.Hour, hourSlots}} {
		for _, base := range []int64{470_000, -int64(tier.slots) / 2, -1_000_000} {
			r := newTier(tier.width, tier.slots)
			wrote := fillRing(&r, base)
			latest := base + int64(tier.slots) + 10
			w := r.width
			for _, tc := range []struct {
				name     string
				sinceSec int64
				first    int64 // first bucket index the window takes
			}{
				{"aligned", (latest - 60) * w, latest - 60},
				{"unaligned, bucket taken whole", (latest-60)*w + w/2 + (w+1)%2, latest - 60},
				{"last second of a bucket", (latest-5)*w + w - 1, latest - 5},
				{"newest bucket only", latest * w, latest},
				{"before the ring's reach", (base - 5) * w, r.oldest()},
				{"at the reach", r.oldest() * w, r.oldest()},
				{"far before", -1 << 40, r.oldest()},
				{"after latest", (latest + 1) * w, latest + 1},
				{"far after", 1 << 40, latest + 1},
			} {
				label := fmt.Sprintf("width %v base %d %s", tier.width, base, tc.name)
				want := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
				for idx := tc.first; idx <= latest; idx++ {
					for k, v := range wrote[idx] {
						ns := (idx*w + int64(k)) * int64(time.Second)
						want.merge(&summary{count: 1, sum: v, min: v, max: v, firstNs: ns, lastNs: ns})
						want.hist[histIndex(v)]++
					}
				}
				got := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
				reduceTier(&r, time.Unix(tc.sinceSec, 0), &got)
				if got.summary != want.summary {
					t.Errorf("%s: summary = %+v, want %+v", label, got.summary, want.summary)
				}
				if *got.hist != *want.hist {
					t.Errorf("%s: merged sketch differs from the written values'", label)
				}
			}
		}
	}
}

func TestReduceEmptyRing(t *testing.T) {
	for _, since := range []time.Time{{}, time.Unix(-5, 0), time.Unix(1_700_000_000, 0)} {
		r := newTier(time.Minute, minuteSlots)
		a := accumulator{summary: emptySummary, hist: new([histSize]uint64)}
		reduceTier(&r, since, &a)
		if a.summary != emptySummary || *a.hist != [histSize]uint64{} {
			t.Errorf("since %v: an empty ring reduced to %+v", since, a.summary)
		}
	}
}

// TestBucketBinRange: the occupied-bin range a merge is confined to
// must hold every bin a bucket counted in, in whatever order the values
// arrived; a bucket without a sketch (reset, or restored from a
// snapshot) has the empty range.
func TestBucketBinRange(t *testing.T) {
	var b bucket
	b.reset(7)
	if b.binLo <= b.binHi {
		t.Fatalf("reset bucket has bin range [%d, %d], want empty", b.binLo, b.binHi)
	}
	for i, v := range []float64{40, 3, 900, 41, 0, 2e6} {
		bin := histIndex(v)
		b.add(int64(i), v, bin)
		b.tally(bin)
		if int(b.binLo) > bin || int(b.binHi) < bin {
			t.Fatalf("after adding %v (bin %d): range [%d, %d] excludes it", v, bin, b.binLo, b.binHi)
		}
	}
	if b.binLo != 0 || b.binHi != histSize-1 {
		t.Errorf("range [%d, %d] after an underflow and an overflow value, want [0, %d]", b.binLo, b.binHi, histSize-1)
	}
	for i, c := range b.hist { // narrow: no bin passed 255
		if c != 0 && (i < int(b.binLo) || i > int(b.binHi)) {
			t.Errorf("bin %d holds %d outside the range [%d, %d]", i, c, b.binLo, b.binHi)
		}
	}
	// Out-of-order arrival through the store: the quantile sees all mass.
	st := NewStore(0)
	for i, v := range []float64{100, 5, 2000, 50, 1} {
		st.Record("rt", scopeV1, t0.Add(time.Duration(i)*time.Millisecond), v)
	}
	if got, err := st.Query("rt", scopeV1, t0, AggMedian); err != nil || got < 50*0.95 || got > 50*1.05 {
		t.Errorf("median of values arriving out of order = %v, %v; want 50 ±5%%", got, err)
	}
}

// TestWriteIntoRestoredCurrentBuckets: Restore unpacks each tier's
// newest saved intervals into live buckets and makes the newest the one
// the tier caches, so a write into the restored current minute and hour
// must add to those very buckets: the minute tier then answers a window
// inside its reach, the hour tier one beyond it, with the restored
// history and the new samples both — quantiles included, over windows
// that straddle the restart.
func TestWriteIntoRestoredCurrentBuckets(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).Truncate(time.Hour)
	all := []observation{
		{base.Add(-30 * time.Hour), 5}, // beyond the minute ring's reach of the rest
		{base, 10},
		{base.Add(4 * time.Minute), 20},
		{base.Add(10*time.Minute + 5*time.Second), 30},
	}
	saved := NewStore(0)
	for _, o := range all {
		saved.Record("rt", scopeV1, o.at, o.value)
	}
	st := restoredStore(t, snapshotRecords(t, saved))
	s := st.lookupBytes([]byte(seriesKey("rt", scopeV1)))
	if s == nil {
		t.Fatal("series missing after Restore")
	}
	newest := base.Add(10 * time.Minute).Unix()
	for tier, width := range map[int]int64{tierMinute: 60, tierHour: 3600} {
		r := &s.tiers[tier]
		if r.cur == nil || r.latest != newest/width || r.cur.idx != r.latest || r.cur != r.live[r.latest&(liveBuckets-1)] {
			t.Fatalf("tier %d after restore: latest %d, cached bucket %+v; want the bucket of %d", tier, r.latest, r.cur, newest/width)
		}
	}

	// Same minute and hour as the restored newest buckets, and far enough
	// from the oldest restored sample that the (empty) seconds ring does
	// not claim the windows below.
	for _, o := range []observation{{base.Add(10*time.Minute + 30*time.Second), 40}, {base.Add(10*time.Minute + 31*time.Second), 50}} {
		st.Record("rt", scopeV1, o.at, o.value)
		all = append(all, o)
	}
	for _, w := range []struct {
		name  string
		since time.Time
	}{
		{"minute ring", base.Add(3 * time.Minute)},
		{"minute ring, whole hour", base},
		{"hour ring", base.Add(-31 * time.Hour)},
	} {
		checkAgainstOracle(t, st, all, w.since, w.name)
	}
	next := observation{base.Add(12 * time.Minute), 60}
	st.Record("rt", scopeV1, next.at, next.value)
	all = append(all, next)
	checkAgainstOracle(t, st, all, base.Add(3*time.Minute), "after the next minute")
}

// TestHistIndexMatchesFormula holds the table histIndex to histBin, the
// log formula it is built from, bit for bit: one ulp either side of every
// bin's first value, at both ends of every guess cell, at the values
// outside the interior, and at 10⁶ seeded random values spread over the
// sketch's range and past it.
func TestHistIndexMatchesFormula(t *testing.T) {
	if last := math.Float64bits(histMax) >> histCellShift; histCellBase+histCells-1 != last {
		t.Fatalf("histGuess covers cells %d..%d, histMax is in cell %d", histCellBase, histCellBase+histCells-1, last)
	}
	check := func(what string, v float64) {
		t.Helper()
		if got, want := histIndex(v), histBin(v); got != want {
			t.Fatalf("%s: histIndex(%v) = %d, histBin = %d", what, v, got, want)
		}
	}
	for i := 1; i < histSize; i++ {
		e := math.Float64frombits(histEdge[i])
		if histBin(e) < i || histBin(math.Nextafter(e, 0)) >= i {
			t.Fatalf("histEdge[%d] = %v is not the first value of a bin ≥ %d", i, e, i)
		}
		for _, v := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1))} {
			check(fmt.Sprintf("edge %d", i), v)
		}
	}
	for c := uint64(0); c < histCells; c++ {
		first := math.Float64frombits((histCellBase + c) << histCellShift)
		last := math.Float64frombits((histCellBase+c+1)<<histCellShift - 1)
		check(fmt.Sprintf("cell %d first", c), first)
		check(fmt.Sprintf("cell %d last", c), last)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -histMax,
		histMin, math.Nextafter(histMin, 0), math.Nextafter(histMin, 1),
		histMax, math.Nextafter(histMax, 0), math.Nextafter(histMax, math.Inf(1)),
		math.SmallestNonzeroFloat64, math.MaxFloat64} {
		check("special", v)
	}
	rng := rand.New(rand.NewSource(41))
	for range 1_000_000 {
		// Log-uniform over [10⁻⁵, 10⁸]: every bin, and both outer ones.
		check("random", math.Pow(10, -5+13*rng.Float64()))
	}
}
