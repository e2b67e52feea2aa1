package microsim

import (
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

var faultEpoch = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

// faultApp is a two-tier app: front calls back on every request, with
// tight latency distributions and no intrinsic errors.
func faultApp(t *testing.T) *Application {
	t.Helper()
	app := NewApplication("front", "GET /")
	app.AddService("front", "v1").
		Endpoint("GET /", 10, 12).
		Calls("back", "GET /data")
	app.AddService("back", "v1").
		Endpoint("GET /data", 20, 24)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func faultSim(t *testing.T, app *Application, in *Injector) (*Sim, *metrics.Store) {
	t.Helper()
	table := router.NewTable()
	if err := InstallBaselineRoutes(app, table); err != nil {
		t.Fatal(err)
	}
	store := metrics.NewStore(0)
	sim := NewSim(app, table, tracing.NewLiveCollector(0), store, 1)
	sim.SetFaults(in)
	return sim, store
}

func execAt(t *testing.T, sim *Sim, at time.Time) Result {
	t.Helper()
	res, err := sim.Execute(&router.Request{UserID: "u1"}, at)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// meanDuration averages n requests issued in a tight burst around `at`
// (spaced 50ms so the whole burst stays inside one fault regime).
func meanDuration(t *testing.T, sim *Sim, at time.Time, n int) (time.Duration, int) {
	t.Helper()
	var total time.Duration
	failures := 0
	for i := 0; i < n; i++ {
		res := execAt(t, sim, at.Add(time.Duration(i)*50*time.Millisecond))
		total += res.Duration
		if res.Err {
			failures++
		}
	}
	return total / time.Duration(n), failures
}

func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"valid spike", Fault{Kind: FaultLatencySpike, Service: "s", Duration: time.Second, LatencyFactor: 2}, true},
		{"no service", Fault{Kind: FaultLatencySpike, Duration: time.Second, LatencyFactor: 2}, false},
		{"no duration", Fault{Kind: FaultBlackout, Service: "s"}, false},
		{"bad probability", Fault{Kind: FaultBlackout, Service: "s", Duration: time.Second, Probability: 1.5}, false},
		{"spike without effect", Fault{Kind: FaultLatencySpike, Service: "s", Duration: time.Second}, false},
		{"storm without rate", Fault{Kind: FaultErrorStorm, Service: "s", Duration: time.Second}, false},
		{"valid storm", Fault{Kind: FaultErrorStorm, Service: "s", Duration: time.Second, ErrorRate: 0.5}, true},
		{"restart without downtime", Fault{Kind: FaultSlowRestart, Service: "s", Duration: time.Second}, false},
		{"restart downtime too long", Fault{Kind: FaultSlowRestart, Service: "s", Duration: time.Second, RestartDowntime: 2 * time.Second}, false},
		{"valid restart", Fault{Kind: FaultSlowRestart, Service: "s", Duration: 10 * time.Second, RestartDowntime: 2 * time.Second}, true},
		{"unknown kind", Fault{Service: "s", Duration: time.Second}, false},
	}
	for _, c := range cases {
		err := c.f.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFaultKindRoundTrip(t *testing.T) {
	for _, k := range []FaultKind{FaultLatencySpike, FaultErrorStorm, FaultBlackout, FaultSlowRestart} {
		got, err := ParseFaultKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := ParseFaultKind("meteor-strike"); err == nil {
		t.Error("unknown kind should fail to parse")
	}
}

func TestLatencySpikeWindow(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{{
		Kind: FaultLatencySpike, Service: "back",
		Start: 10 * time.Second, Duration: 10 * time.Second, LatencyFactor: 5,
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := faultSim(t, faultApp(t), in)

	// Mean end-to-end latency is ~30ms unfaulted and ~110ms while back's
	// 20ms is scaled 5x; a 2x separation is far outside lognormal jitter
	// over 20 samples.
	before, failB := meanDuration(t, sim, faultEpoch, 20)
	during, failD := meanDuration(t, sim, faultEpoch.Add(15*time.Second), 20)
	after, failA := meanDuration(t, sim, faultEpoch.Add(25*time.Second), 20)
	if during < 2*before {
		t.Errorf("spike window did not slow requests: before=%v during=%v", before, during)
	}
	if after > during/2 {
		t.Errorf("spike did not end: during=%v after=%v", during, after)
	}
	if failB+failD+failA != 0 {
		t.Error("latency spike should not fail requests")
	}
}

func TestErrorStormForcedFailures(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{{
		Kind: FaultErrorStorm, Service: "back",
		Start: 0, Duration: time.Minute, ErrorRate: 1,
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, store := faultSim(t, faultApp(t), in)
	at := faultEpoch
	for i := 0; i < 20; i++ {
		res := execAt(t, sim, at)
		if !res.Err {
			t.Fatalf("request %d survived a 100%% error storm", i)
		}
		at = at.Add(time.Second)
	}
	// The storm surfaces in the error metric of the faulted service.
	n, err := store.Query(MetricErrors, metrics.Scope{Service: "back", Version: "v1"},
		faultEpoch.Add(-time.Second), metrics.AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("error count = %v, want 20", n)
	}
}

func TestBlackoutGoesDarkDownstream(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{{
		Kind: FaultBlackout, Service: "front",
		Start: 0, Duration: time.Minute,
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, store := faultSim(t, faultApp(t), in)
	res := execAt(t, sim, faultEpoch)
	if !res.Err {
		t.Error("blacked-out entry service should fail the request")
	}
	if res.Duration > 5*time.Millisecond {
		t.Errorf("blackout should fail fast, took %v", res.Duration)
	}
	// Downstream went dark: back never saw the request.
	if _, err := store.Query(MetricRequests, metrics.Scope{Service: "back", Version: "v1"},
		faultEpoch.Add(-time.Second), metrics.AggCount); err == nil {
		t.Error("downstream service should have seen no traffic during entry blackout")
	}
}

func TestPartialBlackoutProbability(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{{
		Kind: FaultBlackout, Service: "back",
		Start: 0, Duration: time.Hour, Probability: 0.5,
	}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := faultSim(t, faultApp(t), in)
	failures := 0
	at := faultEpoch
	for i := 0; i < 400; i++ {
		if execAt(t, sim, at).Err {
			failures++
		}
		at = at.Add(time.Second)
	}
	if failures < 140 || failures > 260 {
		t.Errorf("partial blackout failed %d/400, want ≈ 200", failures)
	}
}

func TestSlowRestartPhases(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{{
		Kind: FaultSlowRestart, Service: "back",
		Start: 0, Duration: 60 * time.Second, RestartDowntime: 10 * time.Second, LatencyFactor: 4,
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := faultSim(t, faultApp(t), in)

	down := execAt(t, sim, faultEpoch.Add(5*time.Second))
	if !down.Err {
		t.Error("request during restart downtime should fail")
	}
	// Factor decays from 4x right after downtime towards 1x at window
	// end: warm-up latency (~87ms mean) clearly exceeds both the late
	// window (~31ms) and the post-window baseline (~30ms).
	warming, failW := meanDuration(t, sim, faultEpoch.Add(11*time.Second), 20)
	recovered, failR := meanDuration(t, sim, faultEpoch.Add(58*time.Second), 20)
	healthy, failH := meanDuration(t, sim, faultEpoch.Add(2*time.Minute), 20)
	if failW+failR+failH != 0 {
		t.Error("post-downtime requests should succeed")
	}
	if warming < 2*healthy {
		t.Errorf("cold caches should be slow: warming=%v healthy=%v", warming, healthy)
	}
	if recovered > warming/2 {
		t.Errorf("cold-cache latency should decay: warming=%v recovered=%v", warming, recovered)
	}
}

func TestInjectorSnapshot(t *testing.T) {
	in, err := NewInjector(faultEpoch, []Fault{
		{Kind: FaultLatencySpike, Service: "front", Start: time.Hour, Duration: time.Minute, LatencyFactor: 2},
		{Kind: FaultErrorStorm, Service: "back", Version: "v1", Start: 0, Duration: time.Minute, ErrorRate: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := faultSim(t, faultApp(t), in)
	execAt(t, sim, faultEpoch.Add(10*time.Second))

	snap := in.Snapshot(faultEpoch.Add(10 * time.Second))
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	// Active faults sort first.
	if !snap[0].Active || snap[0].Kind != "error-storm" {
		t.Errorf("first entry should be the active storm, got %+v", snap[0])
	}
	if snap[0].Target != "back@v1" {
		t.Errorf("storm target = %q", snap[0].Target)
	}
	if snap[0].Applied == 0 {
		t.Error("active storm should have applied to at least one call")
	}
	if snap[1].Active {
		t.Errorf("future spike should be inactive, got %+v", snap[1])
	}
}
