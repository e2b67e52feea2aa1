// Package stats provides the statistics the reproduction and the
// simulators use: summary statistics, five-number summaries for box
// plots, moving averages, Welch's t-test, the lognormal service-time
// sampler, and the nDCG ranking-quality metric used by the
// health-assessment evaluation.
//
// All functions operate on plain float64 slices and never mutate their
// inputs unless documented otherwise.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns 0 for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// quantileSorted returns the p-quantile (0 <= p <= 1) of a sorted,
// non-empty sample using linear interpolation between order statistics
// (R type-7, the default of most statistics environments).
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Summary bundles the descriptive statistics reported in the paper's
// tables (e.g., Table 3.2 and Table 4.1).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs in a single pass over a sorted copy.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      n,
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		P75:    quantileSorted(sorted, 0.75),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
		Max:    sorted[n-1],
	}
}

// BoxPlot is the five-number summary plus whiskers and outliers used to
// reproduce the paper's box-plot figures (Fig 4.7, 4.9, 5.10) in text form.
type BoxPlot struct {
	Min          float64 // lower whisker (smallest value >= Q1 - 1.5 IQR)
	Q1           float64
	Median       float64
	Q3           float64
	Max          float64 // upper whisker (largest value <= Q3 + 1.5 IQR)
	OutliersLow  int
	OutliersHigh int
}

// NewBoxPlot computes the Tukey box plot of xs.
func NewBoxPlot(xs []float64) BoxPlot {
	n := len(xs)
	if n == 0 {
		return BoxPlot{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)

	q1 := quantileSorted(sorted, 0.25)
	q3 := quantileSorted(sorted, 0.75)
	iqr := q3 - q1
	loFence := q1 - 1.5*iqr
	hiFence := q3 + 1.5*iqr

	b := BoxPlot{Q1: q1, Median: quantileSorted(sorted, 0.5), Q3: q3}
	b.Min = sorted[n-1]
	b.Max = sorted[0]
	for _, x := range sorted {
		switch {
		case x < loFence:
			b.OutliersLow++
		case x > hiFence:
			b.OutliersHigh++
		default:
			if x < b.Min {
				b.Min = x
			}
			if x > b.Max {
				b.Max = x
			}
		}
	}
	// Degenerate case: everything was an outlier on one side.
	if b.Min > b.Max {
		b.Min, b.Max = sorted[0], sorted[n-1]
	}
	return b
}

// MovingAverage returns the simple moving average of xs with the given
// window size. Element i of the result averages xs[max(0,i-window+1) .. i],
// matching the "3-second moving average" plots of Fig 4.6. A window of 0 or
// 1 returns a copy of xs.
func MovingAverage(xs []float64, window int) []float64 {
	if window <= 1 {
		out := make([]float64, len(xs))
		copy(out, xs)
		return out
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}
