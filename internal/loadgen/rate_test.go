package loadgen

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"contexp/internal/router"
)

func TestConstantRate(t *testing.T) {
	r := ConstantRate(42)
	if got := r(0); got != 42 {
		t.Errorf("rate(0) = %v", got)
	}
	if got := r(time.Hour); got != 42 {
		t.Errorf("rate(1h) = %v", got)
	}
}

func TestRampRate(t *testing.T) {
	r := RampRate(10, 110, 100*time.Second)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10},
		{50 * time.Second, 60},
		{100 * time.Second, 110},
		{200 * time.Second, 110},
	}
	for _, c := range cases {
		if got := r(c.at); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ramp(%s) = %v, want %v", c.at, got, c.want)
		}
	}
	// Degenerate window holds the target immediately.
	if got := RampRate(5, 9, 0)(0); got != 9 {
		t.Errorf("zero-window ramp = %v, want 9", got)
	}
}

func TestSpike(t *testing.T) {
	r := Spike(ConstantRate(100), 4, 20*time.Second, 10*time.Second)
	if got := r(10 * time.Second); got != 100 {
		t.Errorf("before window = %v", got)
	}
	if got := r(20 * time.Second); got != 400 {
		t.Errorf("window start = %v", got)
	}
	if got := r(29 * time.Second); got != 400 {
		t.Errorf("inside window = %v", got)
	}
	if got := r(30 * time.Second); got != 100 {
		t.Errorf("window end (exclusive) = %v", got)
	}
}

func TestDiurnalRate(t *testing.T) {
	period := 10 * time.Minute
	r := DiurnalRate(100, 0.5, period, 2*time.Minute)
	if got := r(2 * time.Minute); math.Abs(got-150) > 1e-6 {
		t.Errorf("peak = %v, want 150", got)
	}
	if got := r(7 * time.Minute); math.Abs(got-50) > 1e-6 {
		t.Errorf("trough = %v, want 50", got)
	}
	// Amplitude clamps so the trough never goes negative.
	r = DiurnalRate(100, 3, period, 0)
	if got := r(period / 2); got < 0 {
		t.Errorf("clamped trough = %v, want >= 0", got)
	}
}

// countingTarget buckets arrivals into 1-second bins.
type countingTarget struct {
	start time.Time
	bins  []int
}

func (c *countingTarget) Do(req *router.Request, at time.Time) (time.Duration, bool, error) {
	i := int(at.Sub(c.start) / time.Second)
	if i >= 0 && i < len(c.bins) {
		c.bins[i]++
	}
	return time.Millisecond, false, nil
}

func (c *countingTarget) window(from, to int) int {
	n := 0
	for i := from; i < to && i < len(c.bins); i++ {
		n += c.bins[i]
	}
	return n
}

func TestThinningFollowsRate(t *testing.T) {
	// Flash crowd: 50 rps, x4 during [20s, 30s).
	tgt := &countingTarget{start: tBase, bins: make([]int, 60)}
	res, err := Run(Config{
		Rate:     Spike(ConstantRate(50), 4, 20*time.Second, 10*time.Second),
		Duration: 60 * time.Second,
		Start:    tBase,
		Seed:     7,
	}, pop(t, 100), tgt)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name     string
		from, to int
		want     float64
	}{
		{"before burst", 0, 20, 1000},
		{"burst", 20, 30, 2000},
		{"after burst", 30, 60, 1500},
	}
	for _, c := range checks {
		got := float64(tgt.window(c.from, c.to))
		// 4 sigma of a Poisson count.
		tol := 4 * math.Sqrt(c.want)
		if math.Abs(got-c.want) > tol {
			t.Errorf("%s: %v arrivals, want %v ± %v", c.name, got, c.want, tol)
		}
	}
	if len(res.Samples) != tgt.window(0, 60) {
		t.Errorf("samples %d != binned arrivals %d", len(res.Samples), tgt.window(0, 60))
	}
}

func TestThinningDeterministic(t *testing.T) {
	rate := DiurnalRate(80, 0.6, time.Minute, 0)
	run := func() []Sample {
		res, err := Run(Config{
			Rate:     rate,
			Duration: 90 * time.Second,
			Start:    tBase,
			Seed:     11,
		}, pop(t, 50), TargetFunc(func(*router.Request, time.Time) (time.Duration, bool, error) {
			return time.Millisecond, false, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("reruns differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) {
			t.Fatalf("arrival %d differs: %s vs %s", i, a[i].At, b[i].At)
		}
	}
}

func TestUniformRateSpacing(t *testing.T) {
	// Uniform + constant Rate spaces arrivals exactly like the
	// homogeneous Uniform path.
	mk := func(cfg Config) []Sample {
		res, err := Run(cfg, pop(t, 10), TargetFunc(func(*router.Request, time.Time) (time.Duration, bool, error) {
			return time.Millisecond, false, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Samples
	}
	base := Config{RPS: 25, Duration: 10 * time.Second, Start: tBase, Seed: 3, Uniform: true}
	viaRate := base
	viaRate.RPS = 0
	viaRate.Rate = ConstantRate(25)
	a, b := mk(base), mk(viaRate)
	if len(a) != len(b) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) {
			t.Fatalf("arrival %d differs: %s vs %s", i, a[i].At, b[i].At)
		}
	}
}

func TestRunLogsSeed(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
	}
	_, err := Run(Config{
		RPS: 10, Duration: time.Second, Start: tBase, Seed: 424242, Logf: logf,
	}, pop(t, 10), TargetFunc(func(*router.Request, time.Time) (time.Duration, bool, error) {
		return time.Millisecond, false, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no log lines emitted")
	}
	if !strings.Contains(lines[0], "seed=424242") {
		t.Errorf("start line %q does not carry the seed", lines[0])
	}
}
