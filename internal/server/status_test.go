package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
)

func healthOf(t *testing.T, body string) Health {
	t.Helper()
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad health payload: %v\n%s", err, body)
	}
	return h
}

// expireStatus drops the published status snapshot, as the TTL would
// once it runs out: the next read rebuilds.
func (e *env) expireStatus() { e.server.statusCache.Store(nil) }

// TestStatusCacheCoalescesReads verifies /healthz serves one assembled
// snapshot for the TTL window: state changes between two requests
// inside the window are invisible, and a fresh snapshot appears after
// expiry.
func TestStatusCacheCoalescesReads(t *testing.T) {
	e := newEnv(t)

	code, body := e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	before := healthOf(t, body)
	if before.Store.Series != 0 {
		t.Fatalf("fresh store should report 0 series, got %d", before.Store.Series)
	}

	// Mutate state the snapshot covers.
	e.store.Record("rt", metrics.Scope{Service: "svc", Version: "v1"}, time.Now(), 1)

	if _, body = e.do(http.MethodGet, "/healthz", ""); healthOf(t, body).Store.Series != 0 {
		t.Fatal("second read inside the TTL should serve the cached snapshot")
	}

	e.expireStatus()
	if _, body = e.do(http.MethodGet, "/healthz", ""); healthOf(t, body).Store.Series != 1 {
		t.Fatal("read after TTL expiry should rebuild the snapshot")
	}
}

// TestStatusSharedWithAdminTenants verifies /v1/admin/tenants reads the
// same snapshot /healthz does — one assembly serves both surfaces.
func TestStatusSharedWithAdminTenants(t *testing.T) {
	e := newCustomEnv(t, nil) // default 1s TTL

	// Prime via the admin surface.
	if code, _ := e.do(http.MethodGet, "/v1/admin/tenants", ""); code != http.StatusOK {
		t.Fatalf("admin tenants: %d", code)
	}
	e.store.Record("rt", metrics.Scope{Service: "svc", Version: "v1"}, time.Now(), 1)
	// The healthz that follows must reuse the snapshot the admin call
	// primed.
	if _, body := e.do(http.MethodGet, "/healthz", ""); healthOf(t, body).Store.Series != 0 {
		t.Fatal("healthz should share the snapshot primed by /v1/admin/tenants")
	}
}

// TestHealthReportsEvalPlane verifies the evaluation plane's counters
// ride along in the engine health section: the memo's hits and misses
// and nothing else — there is no pool width to report.
func TestHealthReportsEvalPlane(t *testing.T) {
	e := newEnv(t)
	_, body := e.do(http.MethodGet, "/healthz", "")
	var h struct {
		Engine struct {
			EvalPlane map[string]int64 `json:"evalPlane"`
		} `json:"engine"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad health payload: %v\n%s", err, body)
	}
	plane := h.Engine.EvalPlane
	_, hits := plane["cacheHits"]
	_, misses := plane["cacheMisses"]
	if !hits || !misses || len(plane) != 2 {
		t.Fatalf("evalPlane = %v; want exactly cacheHits and cacheMisses", plane)
	}
}

// TestHealthReportsTrail: engine.trail counts the events the runs hold
// and the chunk bytes they sit in, which start at a run's 256-byte first
// chunk.
func TestHealthReportsTrail(t *testing.T) {
	e := newEnv(t)
	trail := func() bifrost.TrailStats {
		e.expireStatus()
		_, body := e.do(http.MethodGet, "/healthz", "")
		return healthOf(t, body).Engine.Trail
	}
	if got := trail(); got != (bifrost.TrailStats{}) {
		t.Fatalf("engine.trail = %+v before any run", got)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", longDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	run, _ := e.engine.Get("long")
	if got := trail(); got.Events < 2 || got.Events > int64(run.EventCount()) || got.Bytes < 256 {
		t.Errorf("engine.trail = %+v with one run of %d events, want its events in 256 bytes of chunk or more", got, run.EventCount())
	}
}
