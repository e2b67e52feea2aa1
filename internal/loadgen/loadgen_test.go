package loadgen

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

var tBase = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

func pop(t *testing.T, size int) *Population {
	t.Helper()
	p, err := NewPopulation(PopulationConfig{
		Size:   size,
		Groups: map[expmodel.UserGroup]float64{"beta": 0.1, "eu": 0.5},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPopulationValidation(t *testing.T) {
	if _, err := NewPopulation(PopulationConfig{Size: 0}); err == nil {
		t.Error("size 0 should fail")
	}
}

// groupShare returns the fraction of p's users in group g.
func groupShare(p *Population, g expmodel.UserGroup) float64 {
	var n int
	for _, u := range p.users {
		if slices.Contains(u.groups, g) {
			n++
		}
	}
	return float64(n) / float64(len(p.users))
}

func TestPopulationGroupShares(t *testing.T) {
	p := pop(t, 10000)
	if p.Size() != 10000 {
		t.Errorf("Size = %d", p.Size())
	}
	if got := groupShare(p, "beta"); math.Abs(got-0.1) > 0.02 {
		t.Errorf("beta share = %v, want ≈ 0.1", got)
	}
	if got := groupShare(p, "eu"); math.Abs(got-0.5) > 0.02 {
		t.Errorf("eu share = %v, want ≈ 0.5", got)
	}
	if got := groupShare(p, "ghost"); got != 0 {
		t.Errorf("ghost share = %v", got)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	p1 := pop(t, 100)
	p2 := pop(t, 100)
	for i := 0; i < 50; i++ {
		a, b := p1.Sample(), p2.Sample()
		if a.UserID != b.UserID || len(a.Groups) != len(b.Groups) {
			t.Fatal("same seed should generate identical populations and samples")
		}
	}
}

func TestRunProducesExpectedVolume(t *testing.T) {
	p := pop(t, 100)
	var count int
	target := TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		count++
		return 10 * time.Millisecond, false, nil
	})
	res, err := Run(Config{RPS: 100, Duration: 10 * time.Second, Start: tBase, Seed: 1}, p, target)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson arrivals: expect ~1000 ± a few sigma.
	if n := len(res.Samples); n < 850 || n > 1150 {
		t.Errorf("samples = %d, want ≈ 1000", n)
	}
	if count != len(res.Samples) {
		t.Errorf("target calls %d != samples %d", count, len(res.Samples))
	}
	// Arrivals are within the window and monotone.
	for i, s := range res.Samples {
		if s.At.Before(tBase) || !s.At.Before(tBase.Add(10*time.Second)) {
			t.Fatalf("sample %d outside window: %v", i, s.At)
		}
		if i > 0 && s.At.Before(res.Samples[i-1].At) {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestRunUniform(t *testing.T) {
	p := pop(t, 10)
	target := TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		return time.Millisecond, false, nil
	})
	res, err := Run(Config{RPS: 10, Duration: time.Second, Start: tBase, Uniform: true}, p, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 10 {
		t.Errorf("uniform samples = %d, want exactly 10", len(res.Samples))
	}
	gap := res.Samples[1].At.Sub(res.Samples[0].At)
	if gap != 100*time.Millisecond {
		t.Errorf("uniform gap = %v", gap)
	}
}

func TestRunValidation(t *testing.T) {
	p := pop(t, 10)
	target := TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		return 0, false, nil
	})
	if _, err := Run(Config{RPS: 0, Duration: time.Second}, p, target); err == nil {
		t.Error("RPS 0 should fail")
	}
	if _, err := Run(Config{RPS: 1, Duration: 0}, p, target); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestRunCountsTransportErrors(t *testing.T) {
	p := pop(t, 10)
	var i int
	target := TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		i++
		if i%2 == 0 {
			return 0, false, errors.New("boom")
		}
		return time.Millisecond, i%3 == 0, nil
	})
	res, err := Run(Config{RPS: 100, Duration: time.Second, Start: tBase, Uniform: true}, p, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 50 {
		t.Errorf("Errors = %d, want 50", res.Errors)
	}
	if len(res.Samples) != 50 {
		t.Errorf("Samples = %d, want 50", len(res.Samples))
	}
	if !slices.ContainsFunc(res.Samples, func(s Sample) bool { return s.Failed }) {
		t.Error("expected some application failures")
	}
}

// TestRunRecordsClientTelemetry: with a Store configured, the generator
// flushes one client-latency observation per completed request in
// batches, under the default metric and scope.
func TestRunRecordsClientTelemetry(t *testing.T) {
	p := pop(t, 50)
	store := metrics.NewStore(0)
	target := TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		return 7 * time.Millisecond, false, nil
	})
	res, err := Run(Config{
		RPS: 500, Duration: time.Second, Start: tBase, Uniform: true,
		Store: store,
	}, p, target)
	if err != nil {
		t.Fatal(err)
	}
	scope := metrics.Scope{Service: "loadgen", Version: "client"}
	count, err := store.Query("client_latency", scope, time.Time{}, metrics.AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if int(count) != len(res.Samples) {
		t.Errorf("recorded %v observations, want %d", count, len(res.Samples))
	}
	if mean, err := store.Query("client_latency", scope, time.Time{}, metrics.AggMean); err != nil || mean != 7 {
		t.Errorf("mean = %v, %v; want 7", mean, err)
	}
	// A custom metric and scope are honored.
	store2 := metrics.NewStore(0)
	custom := metrics.Scope{Service: "edge", Version: "lb-1"}
	if _, err := Run(Config{
		RPS: 100, Duration: 100 * time.Millisecond, Start: tBase, Uniform: true,
		Store: store2, Metric: "e2e_latency", MetricScope: custom,
	}, p, target); err != nil {
		t.Fatal(err)
	}
	if got, err := store2.Query("e2e_latency", custom, time.Time{}, metrics.AggCount); err != nil || got == 0 {
		t.Errorf("custom scope count = %v, %v", got, err)
	}
}
