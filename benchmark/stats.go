package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileLadder is the set of percentiles a timing may be reported
// at, in per mille so the ten-samples rule is exact integer arithmetic.
var percentileLadder = []int{500, 900, 950, 990, 999}

// highestPercentile picks the highest ladder percentile that still has
// at least ten of n samples beyond it; a tail read off fewer samples is
// one outlier, not a percentile. Below a hundred samples only the
// median qualifies.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, pm := range percentileLadder[1:] {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// sliceSamples is what one slice of a timed region measured: the
// operations' latencies in the order taken, the slice's wall time, and
// whether the tracer was on.
type sliceSamples struct {
	latUS  []float64
	wall   time.Duration
	traced bool
}

// timeline is a workload's timed region, slice by slice. Each slice has
// a scale (see calibrate.go); nil scales mean raw time.
type timeline []sliceSamples

// dist is how a timing is reported: the median over the slices of each
// slice's own p50 and p95, plus the sample count. A burst of machine
// noise or one garbage collection then spoils a slice, not the run.
type dist struct {
	P50, P95 float64
	N        int
}

// sliceFilter selects slices by tracer state.
type sliceFilter int

const (
	sliceAny sliceFilter = iota
	sliceUntraced
	sliceTraced
)

func (f sliceFilter) keeps(s sliceSamples) bool {
	return f == sliceAny || (f == sliceTraced) == s.traced
}

func scaleOf(scales []float64, i int) float64 {
	if i < len(scales) {
		return scales[i]
	}
	return 1
}

// dist reduces the slices the filter keeps.
func (t timeline) dist(scales []float64, keep sliceFilter) dist {
	var d dist
	var p50s, p95s []float64
	for i, s := range t {
		if !keep.keeps(s) || len(s.latUS) == 0 {
			continue
		}
		sorted := sortedCopy(s.latUS)
		p50s = append(p50s, percentile(sorted, 0.50)*scaleOf(scales, i))
		p95s = append(p95s, percentile(sorted, 0.95)*scaleOf(scales, i))
		d.N += len(s.latUS)
	}
	d.P50, d.P95 = median(p50s), median(p95s)
	return d
}

// rate is operations per second over the slices the filter keeps, each
// slice's wall time scaled like its timings.
func (t timeline) rate(scales []float64, keep sliceFilter) float64 {
	var ops, seconds float64
	for i, s := range t {
		if !keep.keeps(s) {
			continue
		}
		ops += float64(len(s.latUS))
		seconds += s.wall.Seconds() * scaleOf(scales, i)
	}
	return ratio(ops, seconds)
}

// all returns every latency of the region in one slice.
func (t timeline) all() []float64 {
	var out []float64
	for _, s := range t {
		out = append(out, s.latUS...)
	}
	return out
}

// traceOverhead is the traced slices' median latency over the untraced
// slices', minus 1.
func (t timeline) traceOverhead() float64 {
	return ratio(t.dist(nil, sliceTraced).P50, t.dist(nil, sliceUntraced).P50) - 1
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
