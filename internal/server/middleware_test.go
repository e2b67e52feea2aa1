package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tenancy"
)

// newCustomEnv is newEnv with a Config hook, for tests that exercise
// the middleware chain (auth, rate limiting, request logging).
func newCustomEnv(t *testing.T, mutate func(*Config)) *env {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 20 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}
}

// doAs issues a request carrying a bearer token (empty token = no
// Authorization header) plus any extra headers, returning status, body,
// and response headers.
func (e *env) doAs(method, path, token, body string, hdr map[string]string) (int, string, http.Header) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, strings.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, string(out), resp.Header
}

// envelopeCode extracts the stable error code from a typed error body.
func envelopeCode(t *testing.T, body string) string {
	t.Helper()
	var envl struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &envl); err != nil {
		t.Fatalf("body is not a typed error envelope: %v\n%s", err, body)
	}
	if envl.Error.Code == "" {
		t.Fatalf("envelope has no error code: %s", body)
	}
	return envl.Error.Code
}

const testTokens = "acme=tok-a,beta=tok-b"

func testResolver(t *testing.T) *tenancy.Resolver {
	t.Helper()
	res, err := tenancy.ParseTokens(testTokens)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAuthMiddleware(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	e := newCustomEnv(t, func(c *Config) {
		c.Auth = testResolver(t)
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})

	code, body, hdr := e.doAs(http.MethodGet, "/v1/runs", "", "", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("no token: want 401, got %d: %s", code, body)
	}
	if got := envelopeCode(t, body); got != "unauthorized" {
		t.Fatalf("no token: want code unauthorized, got %q", got)
	}
	if hdr.Get("WWW-Authenticate") == "" {
		t.Fatal("401 should carry WWW-Authenticate")
	}

	code, body, _ = e.doAs(http.MethodGet, "/v1/runs", "nope", "", nil)
	if code != http.StatusUnauthorized || envelopeCode(t, body) != "unauthorized" {
		t.Fatalf("unknown token: want 401 unauthorized, got %d: %s", code, body)
	}

	code, body, _ = e.doAs(http.MethodGet, "/v1/runs", "tok-a", "", nil)
	if code != http.StatusOK {
		t.Fatalf("valid token: want 200, got %d: %s", code, body)
	}

	// The access log carries the resolved tenant even though auth runs
	// downstream of the logger.
	mu.Lock()
	logged := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "tenant=acme") {
		t.Fatalf("access log should carry the resolved tenant, got:\n%s", logged)
	}

	// The ops surface stays open: probes need no credentials.
	code, body, _ = e.doAs(http.MethodGet, "/healthz", "", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz should be auth-exempt, got %d: %s", code, body)
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	// Burst of 1 with a near-zero refill: the second guarded request in
	// the window must throttle.
	e := newCustomEnv(t, func(c *Config) { c.RateLimit = tenancy.NewLimiter(0.000001, 1) })

	code, body, _ := e.doAs(http.MethodGet, "/v1/runs", "", "", nil)
	if code != http.StatusOK {
		t.Fatalf("first request: want 200, got %d: %s", code, body)
	}
	code, body, hdr := e.doAs(http.MethodGet, "/v1/runs", "", "", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: want 429, got %d: %s", code, body)
	}
	if got := envelopeCode(t, body); got != "rate_limited" {
		t.Fatalf("want code rate_limited, got %q", got)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("429 should carry an integer Retry-After >= 1, got %q", hdr.Get("Retry-After"))
	}

	// /healthz is not charged against the budget.
	for i := 0; i < 3; i++ {
		if code, body, _ := e.doAs(http.MethodGet, "/healthz", "", "", nil); code != http.StatusOK {
			t.Fatalf("/healthz should be rate-limit-exempt, got %d: %s", code, body)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	e := newCustomEnv(t, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})

	// An inbound correlation ID flows through to the response header and
	// the access log.
	_, _, hdr := e.doAs(http.MethodGet, "/v1/runs", "", "", map[string]string{"X-Request-Id": "corr-123"})
	if got := hdr.Get("X-Request-Id"); got != "corr-123" {
		t.Fatalf("inbound request ID should echo back, got %q", got)
	}
	mu.Lock()
	logged := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "req=corr-123") {
		t.Fatalf("access log should carry the request ID, got:\n%s", logged)
	}

	// Without one, the edge mints an ID.
	_, _, hdr = e.doAs(http.MethodGet, "/v1/runs", "", "", nil)
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("server should mint a request ID when none arrives")
	}

	// Garbage inbound IDs (whitespace, oversized) are replaced, not echoed.
	_, _, hdr = e.doAs(http.MethodGet, "/v1/runs", "", "", map[string]string{"X-Request-Id": "has space"})
	if got := hdr.Get("X-Request-Id"); got == "has space" || got == "" {
		t.Fatalf("unsane inbound ID should be replaced, got %q", got)
	}
}

// TestMintedRequestIDShape holds the hand-formatted request ID to the
// "%08x-%06d" it replaced, across the sequence numbers where the zero
// padding changes width.
func TestMintedRequestIDShape(t *testing.T) {
	e := newEnv(t)
	last := reqSeq.Load()
	t.Cleanup(func() { reqSeq.Store(max(last, reqSeq.Load())) })
	r := httptest.NewRequest(http.MethodGet, "/v1/runs", nil)
	for _, seq := range []uint64{1, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 123_456_789} {
		reqSeq.Store(seq - 1)
		want := fmt.Sprintf("%08x-%06d", uint32(e.server.start.UnixNano()), seq)
		if got := e.server.requestID(r); got != want {
			t.Errorf("request %d: minted %q, want %q", seq, got, want)
		}
	}
}

func TestMuxErrorsAreTypedEnvelopes(t *testing.T) {
	e := newEnv(t)

	code, body, hdr := e.doAs(http.MethodGet, "/v1/definitely-not-a-route", "", "", nil)
	if code != http.StatusNotFound {
		t.Fatalf("want 404, got %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("mux 404 should be JSON, got Content-Type %q", ct)
	}
	if got := envelopeCode(t, body); got != "not_found" {
		t.Fatalf("want code not_found, got %q", got)
	}

	code, body, hdr = e.doAs(http.MethodDelete, "/v1/runs", "", "", nil)
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("want 405, got %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("mux 405 should be JSON, got Content-Type %q", ct)
	}
	if got := envelopeCode(t, body); got != "method_not_allowed" {
		t.Fatalf("want code method_not_allowed, got %q", got)
	}
}

// listPage is the shared paginated list shape.
type listPage struct {
	Items      []RunSummary `json:"items"`
	NextCursor string       `json:"nextCursor"`
}

func decodePage(t *testing.T, body string) listPage {
	t.Helper()
	var p listPage
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("decoding list page: %v\n%s", err, body)
	}
	return p
}

func TestCrossTenantIsolation(t *testing.T) {
	e := newCustomEnv(t, func(c *Config) { c.Auth = testResolver(t) })

	// Both tenants run the same-named strategy against the same-named
	// service. Neither sees the other: no busy cross-talk.
	code, body, _ := e.doAs(http.MethodPost, "/v1/strategies", "tok-a", longDSL, nil)
	if code != http.StatusCreated {
		t.Fatalf("acme submit: want 201, got %d: %s", code, body)
	}
	code, body, _ = e.doAs(http.MethodPost, "/v1/strategies", "tok-b", longDSL, nil)
	if code != http.StatusCreated {
		t.Fatalf("beta submit of the same strategy/service: want 201, got %d: %s", code, body)
	}

	// Each tenant lists exactly its own run.
	for _, tc := range []struct{ token, tenant string }{{"tok-a", "acme"}, {"tok-b", "beta"}} {
		code, body, _ := e.doAs(http.MethodGet, "/v1/runs", tc.token, "", nil)
		if code != http.StatusOK {
			t.Fatalf("%s list: got %d: %s", tc.tenant, code, body)
		}
		page := decodePage(t, body)
		if len(page.Items) != 1 || page.Items[0].Tenant != tc.tenant || page.Items[0].Name != "long" {
			t.Fatalf("%s should see exactly its own run, got %+v", tc.tenant, page.Items)
		}
	}

	// Within a tenant the service-conflict contract still holds, with
	// the specific "busy" code.
	second := strings.Replace(longDSL, `"long"`, `"long2"`, 1)
	code, body, _ = e.doAs(http.MethodPost, "/v1/strategies", "tok-a", second, nil)
	if code != http.StatusConflict {
		t.Fatalf("same-tenant same-service: want 409, got %d: %s", code, body)
	}
	if got := envelopeCode(t, body); got != "busy" {
		t.Fatalf("want code busy, got %q", got)
	}

	// beta aborts "long": only beta's run dies.
	code, body, _ = e.doAs(http.MethodDelete, "/v1/runs/long", "tok-b", "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("beta abort: want 202, got %d: %s", code, body)
	}
	code, body, _ = e.doAs(http.MethodGet, "/v1/runs/long", "tok-a", "", nil)
	if code != http.StatusOK {
		t.Fatalf("acme's run should survive beta's abort: %d: %s", code, body)
	}
	var detail RunDetail
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Status != "running" {
		t.Fatalf("acme's run should still be running, got %s", detail.Status)
	}

	// Ingested metrics land in the submitting tenant's namespace even
	// though the payload never names a tenant.
	obs := `{"observations":[{"metric":"response_time","service":"svc","version":"v1","value":12}]}`
	code, body, _ = e.doAs(http.MethodPost, "/v1/metrics", "tok-a", obs, nil)
	if code != http.StatusAccepted {
		t.Fatalf("acme metrics ingest: want 202, got %d: %s", code, body)
	}
	series := e.store.TenantSeries()
	if series["acme"] == 0 {
		t.Fatalf("acme's ingested series should be tenant-stamped, got %v", series)
	}
	if series["beta"] != 0 {
		t.Fatalf("beta should have no series, got %v", series)
	}
}

func TestListRunsPaginationAndFilter(t *testing.T) {
	e := newEnv(t) // auth-free: ?tenant= is live as an operator filter

	tenants := []string{"", "", "acme", "acme", "beta"}
	for i, tn := range tenants {
		src := strings.Replace(longDSL, `"long"`, fmt.Sprintf("%q", fmt.Sprintf("long%d", i)), 1)
		src = strings.Replace(src, `"svc"`, fmt.Sprintf("%q", fmt.Sprintf("svc%d", i)), 1)
		st, err := bifrost.ParseStrategy(src)
		if err != nil {
			t.Fatal(err)
		}
		st.Tenant = tn
		if _, err := e.engine.Launch(st); err != nil {
			t.Fatal(err)
		}
	}

	// Page through with limit=2: 2 + 2 + 1, launch order preserved.
	var names []string
	cursor := ""
	for page := 0; ; page++ {
		path := "/v1/runs?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		code, body := e.do(http.MethodGet, path, "")
		if code != http.StatusOK {
			t.Fatalf("page %d: got %d: %s", page, code, body)
		}
		p := decodePage(t, body)
		if page < 2 && len(p.Items) != 2 {
			t.Fatalf("page %d: want 2 items, got %d", page, len(p.Items))
		}
		for _, it := range p.Items {
			names = append(names, it.Name)
		}
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
		if page > 3 {
			t.Fatal("pagination did not terminate")
		}
	}
	want := []string{"long0", "long1", "long2", "long3", "long4"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("paged names %v, want %v", names, want)
	}

	// Operator tenant filter.
	code, body := e.do(http.MethodGet, "/v1/runs?tenant=acme", "")
	if code != http.StatusOK {
		t.Fatalf("tenant filter: got %d: %s", code, body)
	}
	if p := decodePage(t, body); len(p.Items) != 2 {
		t.Fatalf("tenant=acme: want 2 runs, got %+v", p.Items)
	}
	code, body = e.do(http.MethodGet, "/v1/runs?tenant=default", "")
	if code != http.StatusOK {
		t.Fatalf("default filter: got %d: %s", code, body)
	}
	if p := decodePage(t, body); len(p.Items) != 2 {
		t.Fatalf("tenant=default: want 2 runs, got %+v", p.Items)
	}

	// State filter.
	code, body = e.do(http.MethodGet, "/v1/runs?state=running", "")
	if code != http.StatusOK {
		t.Fatalf("state filter: got %d: %s", code, body)
	}
	if p := decodePage(t, body); len(p.Items) != 5 {
		t.Fatalf("state=running: want 5 runs, got %d", len(p.Items))
	}
	code, body = e.do(http.MethodGet, "/v1/runs?state=succeeded", "")
	if code != http.StatusOK {
		t.Fatalf("state filter: got %d: %s", code, body)
	}
	if p := decodePage(t, body); len(p.Items) != 0 {
		t.Fatalf("state=succeeded: want 0 runs, got %d", len(p.Items))
	}

	// Bad cursor and bad limit are invalid_request, not 500s.
	code, body = e.do(http.MethodGet, "/v1/runs?cursor=banana", "")
	if code != http.StatusBadRequest || envelopeCode(t, body) != "invalid_request" {
		t.Fatalf("bad cursor: want 400 invalid_request, got %d: %s", code, body)
	}
	code, body = e.do(http.MethodGet, "/v1/runs?limit=-3", "")
	if code != http.StatusBadRequest || envelopeCode(t, body) != "invalid_request" {
		t.Fatalf("bad limit: want 400 invalid_request, got %d: %s", code, body)
	}
}

func TestAdminTenantsAndHealthUsage(t *testing.T) {
	e := newCustomEnv(t, func(c *Config) {
		c.Auth = testResolver(t)
		c.RateLimit = tenancy.NewLimiter(1000, 1000)
	})

	if code, body, _ := e.doAs(http.MethodPost, "/v1/strategies", "tok-a", longDSL, nil); code != http.StatusCreated {
		t.Fatalf("submit: got %d: %s", code, body)
	}

	code, body, _ := e.doAs(http.MethodGet, "/v1/admin/tenants", "tok-b", "", nil)
	if code != http.StatusOK {
		t.Fatalf("admin tenants: got %d: %s", code, body)
	}
	var listing struct {
		Items []TenantUsage `json:"items"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]TenantUsage, len(listing.Items))
	for _, u := range listing.Items {
		byName[u.Name] = u
	}
	if byName["acme"].Runs != 1 || byName["acme"].LiveRuns != 1 {
		t.Fatalf("acme usage should show its live run, got %+v", byName["acme"])
	}
	if _, ok := byName["beta"]; !ok {
		t.Fatalf("configured tenants should be listed even when idle, got %+v", listing.Items)
	}
	if byName["acme"].Requests == 0 {
		t.Fatalf("request counters should accumulate, got %+v", byName["acme"])
	}

	// /healthz surfaces the same per-tenant usage once tenants exist.
	code, body, _ = e.doAs(http.MethodGet, "/healthz", "", "", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: got %d: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Tenants) < 2 {
		t.Fatalf("healthz should list per-tenant usage, got %+v", h.Tenants)
	}
}
