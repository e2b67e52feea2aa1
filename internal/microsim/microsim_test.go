package microsim

import (
	"strings"
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

var tBase = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

func simpleApp(t *testing.T) *Application {
	t.Helper()
	app := NewApplication("front", "GET /")
	b := app.AddService("front", "v1").
		Endpoint("GET /", 10, 25).
		Calls("back", "GET /data")
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	b = app.AddService("back", "v1").
		Endpoint("GET /data", 5, 12)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestBuilderErrors(t *testing.T) {
	app := NewApplication("s", "e")
	if err := app.AddService("s", "v1").ErrorRate(0.5).Err(); err == nil {
		t.Error("ErrorRate before Endpoint should fail")
	}
	if err := app.AddService("x", "v1").Endpoint("e", 1, 2).Endpoint("e", 1, 2).Err(); err == nil {
		t.Error("duplicate endpoint should fail")
	}
	if err := app.AddService("x", "v1").Err(); err == nil {
		t.Error("duplicate service version should fail")
	}
	if err := app.AddService("y", "v1").Endpoint("e", 1, 2).ErrorRate(1.5).Err(); err == nil {
		t.Error("error rate > 1 should fail")
	}
	if err := app.AddService("z", "v1").Endpoint("e", 1, 2).CallsWithProbability("a", "b", 0).Err(); err == nil {
		t.Error("call probability 0 should fail")
	}
}

func TestValidate(t *testing.T) {
	app := NewApplication("front", "GET /")
	_ = app.AddService("front", "v1").
		Endpoint("GET /", 10, 25).
		Calls("ghost", "GET /data")
	err := app.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Errorf("Validate = %v", err)
	}

	app2 := NewApplication("front", "GET /")
	_ = app2.AddService("front", "v1").
		Endpoint("GET /", 10, 25).
		Calls("back", "GET /missing")
	_ = app2.AddService("back", "v1").Endpoint("GET /data", 5, 12)
	err = app2.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown endpoint") {
		t.Errorf("Validate = %v", err)
	}

	app3 := NewApplication("front", "GET /nope")
	_ = app3.AddService("front", "v1").Endpoint("GET /", 10, 25)
	if err := app3.Validate(); err == nil {
		t.Error("missing entry endpoint should fail validation")
	}
}

func TestBaselineManagement(t *testing.T) {
	app := simpleApp(t)
	if app.Baseline("front") != "v1" {
		t.Error("first version should be baseline")
	}
	_ = app.AddService("front", "v2").Endpoint("GET /", 10, 25)
	if app.Baseline("front") != "v1" {
		t.Error("adding a version must not change baseline")
	}
}

func TestSimExecuteBaseline(t *testing.T) {
	app := simpleApp(t)
	tbl := router.NewTable()
	if err := InstallBaselineRoutes(app, tbl); err != nil {
		t.Fatal(err)
	}
	traces := tracing.NewLiveCollector(0)
	store := metrics.NewStore(0)
	sim := NewSim(app, tbl, traces, store, 1)

	res, err := sim.Execute(&router.Request{UserID: "u1"}, tBase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != tracing.VariantBaseline {
		t.Errorf("variant = %v", res.Variant)
	}
	if res.Duration <= 0 {
		t.Error("duration should be positive")
	}
	trs := traces.Harvest(0)
	if len(trs) != 1 {
		t.Fatalf("traces = %d", len(trs))
	}
	tr := trs[0]
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	// Root duration covers the child's.
	root, _ := tr.Root()
	var child tracing.Span
	for _, s := range tr.Spans {
		if s.ParentID != 0 {
			child = s
		}
	}
	if root.Duration < child.Duration {
		t.Errorf("root %v < child %v", root.Duration, child.Duration)
	}
	// Metrics recorded for both services.
	if _, err := store.Query(MetricResponseTime, metrics.Scope{Service: "front", Version: "v1"}, tBase.Add(-time.Hour), metrics.AggMean); err != nil {
		t.Errorf("front metrics missing: %v", err)
	}
	if _, err := store.Query(MetricResponseTime, metrics.Scope{Service: "back", Version: "v1"}, tBase.Add(-time.Hour), metrics.AggMean); err != nil {
		t.Errorf("back metrics missing: %v", err)
	}
}

func TestSimExperimentVariantTagging(t *testing.T) {
	app := simpleApp(t)
	_ = app.AddService("back", "v2").Endpoint("GET /data", 5, 12)
	tbl := router.NewTable()
	if err := InstallBaselineRoutes(app, tbl); err != nil {
		t.Fatal(err)
	}
	// Route all back traffic to v2 (non-baseline).
	if err := tbl.SetWeights("back", []router.Backend{{Version: "v2", Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	sim := NewSim(app, tbl, tracing.NewLiveCollector(0), nil, 1)
	res, err := sim.Execute(&router.Request{UserID: "u"}, tBase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != tracing.VariantExperiment {
		t.Errorf("variant = %v, want experiment", res.Variant)
	}
}

func TestSimDarkLaunchGeneratesLoadNotLatency(t *testing.T) {
	app := simpleApp(t)
	_ = app.AddService("back", "v2").Endpoint("GET /data", 500, 900) // very slow dark version
	tbl := router.NewTable()
	if err := InstallBaselineRoutes(app, tbl); err != nil {
		t.Fatal(err)
	}
	route, err := tbl.Route("back")
	if err != nil {
		t.Fatal(err)
	}
	route.Mirrors = []string{"v2"}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	store := metrics.NewStore(0)
	traces := tracing.NewLiveCollector(0)
	sim := NewSim(app, tbl, traces, store, 1)

	res, err := sim.Execute(&router.Request{UserID: "u"}, tBase)
	if err != nil {
		t.Fatal(err)
	}
	// User-visible latency excludes the slow mirror.
	if res.Duration > 200*time.Millisecond {
		t.Errorf("mirror latency leaked into user path: %v", res.Duration)
	}
	// But the mirror generated load under the "dark" metric variant.
	darkScope := metrics.Scope{Service: "back", Version: "v2", Variant: "dark"}
	n, err := store.Query(MetricRequests, darkScope, tBase.Add(-time.Hour), metrics.AggCount)
	if err != nil || n != 1 {
		t.Errorf("dark requests = %v, %v", n, err)
	}
	// Dark spans do not pollute traces.
	for _, tr := range traces.Harvest(0) {
		for _, s := range tr.Spans {
			if s.Version == "v2" {
				t.Error("dark span leaked into traces")
			}
		}
	}
}

func TestSimErrorPropagation(t *testing.T) {
	app := NewApplication("front", "GET /")
	_ = app.AddService("front", "v1").
		Endpoint("GET /", 1, 3).
		Calls("back", "GET /data")
	_ = app.AddService("back", "v1").
		Endpoint("GET /data", 1, 3).
		ErrorRate(1) // always fails
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl := router.NewTable()
	_ = InstallBaselineRoutes(app, tbl)
	sim := NewSim(app, tbl, nil, nil, 1)
	res, err := sim.Execute(&router.Request{UserID: "u"}, tBase)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Err {
		t.Error("downstream failure should propagate to the root result")
	}
}

func TestSimCycleGuard(t *testing.T) {
	app := NewApplication("a", "e")
	_ = app.AddService("a", "v1").Endpoint("e", 1, 2).Calls("b", "e")
	_ = app.AddService("b", "v1").Endpoint("e", 1, 2).Calls("a", "e")
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl := router.NewTable()
	_ = InstallBaselineRoutes(app, tbl)
	sim := NewSim(app, tbl, nil, nil, 1)
	if _, err := sim.Execute(&router.Request{UserID: "u"}, tBase); err == nil {
		t.Error("cyclic topology should abort with depth error")
	}
}

func TestSimDeterministicWithSeed(t *testing.T) {
	run := func() time.Duration {
		app := simpleApp(t)
		tbl := router.NewTable()
		_ = InstallBaselineRoutes(app, tbl)
		sim := NewSim(app, tbl, nil, nil, 42)
		var total time.Duration
		for i := 0; i < 50; i++ {
			res, err := sim.Execute(&router.Request{UserID: "u"}, tBase)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Duration
		}
		return total
	}
	if run() != run() {
		t.Error("same seed should produce identical simulations")
	}
}

func TestShopApplication(t *testing.T) {
	app, err := ShopApplication()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(app.Services()); got != 10 {
		t.Errorf("services = %d, want 10", got)
	}
	if vs := app.Versions("recommendation"); len(vs) != 2 {
		t.Errorf("recommendation versions = %v", vs)
	}
	tbl := router.NewTable()
	if err := InstallBaselineRoutes(app, tbl); err != nil {
		t.Fatal(err)
	}
	traces := tracing.NewLiveCollector(0)
	sim := NewSim(app, tbl, traces, nil, 1)
	for i := 0; i < 20; i++ {
		if _, err := sim.Execute(&router.Request{UserID: "u"}, tBase); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range traces.Harvest(0) {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	app := simpleApp(t)
	if _, err := app.Lookup("ghost", "v1"); err == nil {
		t.Error("unknown service should error")
	}
	if _, err := app.Lookup("front", "v99"); err == nil {
		t.Error("unknown version should error")
	}
}
