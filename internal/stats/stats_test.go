package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single observation should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		if got := quantileSorted(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("quantileSorted(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if quantileSorted([]float64{42}, 0.9) != 42 {
		t.Error("quantile of single element should be that element")
	}
}

func TestSummariesDoNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	NewBoxPlot(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("a summary mutated its input: %v", xs)
	}
}

func TestQuantileOrderingProperty(t *testing.T) {
	// Property: quantiles are monotone in p and bounded by min/max.
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p1 = math.Abs(math.Mod(p1, 1))
		p2 = math.Abs(math.Mod(p2, 1))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, q2 := quantileSorted(xs, p1), quantileSorted(xs, p2)
		return q1 <= q2 && q1 >= xs[0] && q2 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("Summarize(nil).N = %d", empty.N)
	}
}

func TestBoxPlot(t *testing.T) {
	// 1..9 with one extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := NewBoxPlot(xs)
	if b.OutliersHigh != 1 {
		t.Errorf("OutliersHigh = %d, want 1", b.OutliersHigh)
	}
	if b.Max != 9 {
		t.Errorf("upper whisker = %v, want 9", b.Max)
	}
	if b.Min != 1 {
		t.Errorf("lower whisker = %v, want 1", b.Min)
	}
	if !(b.Q1 <= b.Median && b.Median <= b.Q3) {
		t.Errorf("quartiles out of order: %+v", b)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Window 1 returns a copy.
	cp := MovingAverage(xs, 1)
	cp[0] = 99
	if xs[0] == 99 {
		t.Error("MovingAverage(_, 1) aliases its input")
	}
}

func TestWelchT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1 // shifted by one sd
	}
	res, err := WelchT(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Errorf("expected significant difference, p = %v", res.PValue)
	}

	// Same distribution: should usually not be significant.
	c := make([]float64, 200)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	res2, err := WelchT(a, c, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PValue < 0.001 {
		t.Errorf("unexpectedly tiny p-value for identical distributions: %v", res2.PValue)
	}
}

func TestWelchTErrors(t *testing.T) {
	if _, err := WelchT([]float64{1}, []float64{1, 2}, 0.05); err == nil {
		t.Error("expected error for sample with < 2 observations")
	}
}

func TestWelchTConstantSamples(t *testing.T) {
	same := []float64{5, 5, 5}
	res, err := WelchT(same, same, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Error("identical constant samples should not be significant")
	}
	res, err = WelchT(same, []float64{7, 7, 7}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Error("different constant samples should be significant")
	}
}

func TestStudentTSF(t *testing.T) {
	// With huge df, t converges to normal: P(T > 1.96) ≈ 0.025.
	if got := studentTSF(1.96, 1e6); !almostEqual(got, 0.025, 1e-3) {
		t.Errorf("studentTSF(1.96, 1e6) = %v", got)
	}
	// Known value: P(T > 2.228) with df=10 ≈ 0.025 (t-table).
	if got := studentTSF(2.228, 10); !almostEqual(got, 0.025, 2e-3) {
		t.Errorf("studentTSF(2.228, 10) = %v", got)
	}
	if studentTSF(math.Inf(1), 5) != 0 {
		t.Error("survival at +inf should be 0")
	}
}
