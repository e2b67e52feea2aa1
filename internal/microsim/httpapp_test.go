package microsim

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
)

func startHTTPApp(t *testing.T, app *Application) (*HTTPApplication, *router.Table, *metrics.Store) {
	t.Helper()
	table := router.NewTable()
	if err := InstallBaselineRoutes(app, table); err != nil {
		t.Fatal(err)
	}
	store := metrics.NewStore(0)
	h, err := StartHTTP(app, table, store, HTTPConfig{LatencyScale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h, table, store
}

func get(t *testing.T, url, user string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-User-ID", user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestHTTPAppEndToEnd(t *testing.T) {
	app := NewApplication("front", "GET /")
	if err := app.AddService("front", "v1").
		Endpoint("GET /", 4, 10).
		Calls("back", "GET /data").Err(); err != nil {
		t.Fatal(err)
	}
	if err := app.AddService("back", "v1").
		Endpoint("GET /data", 2, 5).Err(); err != nil {
		t.Fatal(err)
	}
	h, _, store := startHTTPApp(t, app)

	status, body := get(t, h.EntryURL(), "alice")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %q", status, body)
	}
	if !strings.Contains(body, "front@v1") {
		t.Errorf("body = %q", body)
	}
	// Both services saw traffic and reported telemetry.
	for _, svc := range []string{"front", "back"} {
		scope := metrics.Scope{Service: svc, Version: "v1"}
		n, err := store.Query(MetricRequests, scope, time.Time{}, metrics.AggCount)
		if err != nil || n != 1 {
			t.Errorf("%s requests = %v, %v", svc, n, err)
		}
	}
}

func TestHTTPAppRoutingShift(t *testing.T) {
	app := NewApplication("front", "GET /")
	if err := app.AddService("front", "v1").
		Endpoint("GET /", 3, 8).
		Calls("back", "GET /data").Err(); err != nil {
		t.Fatal(err)
	}
	_ = app.AddService("back", "v1").Endpoint("GET /data", 2, 5)
	_ = app.AddService("back", "v2").Endpoint("GET /data", 2, 5)
	h, table, store := startHTTPApp(t, app)

	// Shift all back traffic to v2 at runtime; subsequent requests land
	// on the new version.
	if err := table.SetWeights("back", []router.Backend{{Version: "v2", Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		status, _ := get(t, h.EntryURL(), fmt.Sprintf("user-%d", i))
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
	}
	scopeV2 := metrics.Scope{Service: "back", Version: "v2"}
	n, err := store.Query(MetricRequests, scopeV2, time.Time{}, metrics.AggCount)
	if err != nil || n != 5 {
		t.Errorf("back v2 requests = %v, %v", n, err)
	}
}

func TestHTTPAppErrorInjection(t *testing.T) {
	app := NewApplication("front", "GET /")
	if err := app.AddService("front", "v1").
		Endpoint("GET /", 1, 3).ErrorRate(1).Err(); err != nil {
		t.Fatal(err)
	}
	h, _, store := startHTTPApp(t, app)
	status, _ := get(t, h.EntryURL(), "u")
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	scope := metrics.Scope{Service: "front", Version: "v1"}
	n, err := store.Query(MetricErrors, scope, time.Time{}, metrics.AggCount)
	if err != nil || n != 1 {
		t.Errorf("errors = %v, %v", n, err)
	}
}

func TestHTTPAppDownstreamFailurePropagates(t *testing.T) {
	app := NewApplication("front", "GET /")
	_ = app.AddService("front", "v1").
		Endpoint("GET /", 1, 3).
		Calls("back", "GET /data")
	_ = app.AddService("back", "v1").
		Endpoint("GET /data", 1, 3).ErrorRate(1)
	h, _, _ := startHTTPApp(t, app)
	status, _ := get(t, h.EntryURL(), "u")
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (downstream failure)", status)
	}
}

func TestHTTPAppUnknownPath(t *testing.T) {
	app := NewApplication("front", "GET /")
	_ = app.AddService("front", "v1").Endpoint("GET /", 1, 3)
	h, _, _ := startHTTPApp(t, app)
	status, _ := get(t, h.frontURL["front"]+"/nope", "u")
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
}

func TestSplitEndpoint(t *testing.T) {
	tests := []struct {
		in, method, path string
	}{
		{"GET /products", "GET", "/products"},
		{"POST /order", "POST", "/order"},
		{"QUERY products", "QUERY", "/products"},
		{"/bare", "GET", "/bare"},
	}
	for _, tt := range tests {
		m, p := splitEndpoint(tt.in)
		if m != tt.method || p != tt.path {
			t.Errorf("splitEndpoint(%q) = %q %q", tt.in, m, p)
		}
	}
}

func TestHTTPAppInvalidApplication(t *testing.T) {
	app := NewApplication("ghost", "GET /")
	if _, err := StartHTTP(app, router.NewTable(), nil, HTTPConfig{}); err == nil {
		t.Error("invalid application should fail to start")
	}
}

func TestHTTPShopApplication(t *testing.T) {
	app, err := ShopApplication()
	if err != nil {
		t.Fatal(err)
	}
	h, _, store := startHTTPApp(t, app)
	for i := 0; i < 10; i++ {
		status, _ := get(t, h.EntryURL(), fmt.Sprintf("u%d", i))
		if status != http.StatusOK && status != http.StatusInternalServerError {
			t.Fatalf("status = %d", status)
		}
	}
	// The whole call tree reported telemetry.
	scope := metrics.Scope{Service: "catalog", Version: "v1"}
	if _, err := store.Query(MetricResponseTime, scope, time.Time{}, metrics.AggMean); err != nil {
		t.Errorf("catalog telemetry missing: %v", err)
	}
}
