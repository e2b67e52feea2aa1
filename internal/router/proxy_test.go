package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func backendServer(t *testing.T, name string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		fmt.Fprintf(w, "hello from %s", name)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestProxyRoutesByWeight(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(Route{Service: "catalog", Backends: []Backend{
		{Version: "v1", Weight: 1},
		{Version: "v2", Weight: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	v1 := backendServer(t, "v1", nil)
	v2 := backendServer(t, "v2", nil)

	p := NewProxy("catalog", tbl)
	defer p.Close()
	if err := p.RegisterUpstream("v1", v1.URL); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterUpstream("v2", v2.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/products", nil)
	req.Header.Set("X-User-ID", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello from v1" {
		t.Errorf("body = %q", body)
	}

	// Flip all traffic to v2 at runtime.
	if err := tbl.SetWeights("catalog", []Backend{
		{Version: "v1", Weight: 0}, {Version: "v2", Weight: 1},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello from v2" {
		t.Errorf("after weight shift body = %q", body)
	}
}

func TestProxyRuleRouting(t *testing.T) {
	tbl := NewTable()
	route := Route{
		Service:  "catalog",
		Backends: []Backend{{Version: "v1", Weight: 1}},
		Rules:    []Rule{{Name: "beta", Match: GroupMatcher{Group: "beta"}, Version: "v2"}},
	}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	v1 := backendServer(t, "v1", nil)
	v2 := backendServer(t, "v2", nil)
	p := NewProxy("catalog", tbl)
	defer p.Close()
	_ = p.RegisterUpstream("v1", v1.URL)
	_ = p.RegisterUpstream("v2", v2.URL)
	front := httptest.NewServer(p)
	defer front.Close()

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/", nil)
	req.Header.Set("X-User-ID", "bob")
	req.Header.Set("X-User-Groups", "beta, staff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello from v2" {
		t.Errorf("beta user routed to %q", body)
	}
}

func TestProxyDarkLaunchMirrors(t *testing.T) {
	var darkHits atomic.Int64
	v1 := backendServer(t, "v1", nil)
	dark := backendServer(t, "dark", &darkHits)

	tbl := NewTable()
	route := Route{
		Service:  "catalog",
		Backends: []Backend{{Version: "v1", Weight: 1}},
		Mirrors:  []string{"v2-dark"},
	}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	p := NewProxy("catalog", tbl)
	defer p.Close()
	_ = p.RegisterUpstream("v1", v1.URL)
	_ = p.RegisterUpstream("v2-dark", dark.URL)
	front := httptest.NewServer(p)
	defer front.Close()

	const n = 20
	for i := 0; i < n; i++ {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/x", nil)
		req.Header.Set("X-User-ID", fmt.Sprintf("u%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Mirrors are async; wait for them to drain.
	deadline := time.Now().Add(2 * time.Second)
	for darkHits.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := darkHits.Load(); got != n {
		t.Errorf("dark launch hits = %d, want %d", got, n)
	}
}

func TestProxyErrors(t *testing.T) {
	tbl := NewTable()
	p := NewProxy("ghost", tbl)
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	// No route at all.
	resp, err := http.Get(front.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}

	// Route exists but upstream is not registered.
	_ = tbl.Set(Route{Service: "ghost", Backends: []Backend{{Version: "v1", Weight: 1}}})
	resp, err = http.Get(front.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502 for missing upstream", resp.StatusCode)
	}

	if err := p.RegisterUpstream("v1", "://bad-url"); err == nil {
		t.Error("bad upstream URL should error")
	}
	if err := p.RegisterUpstream("v1", "localhost:8080"); err == nil {
		t.Error("an upstream URL that is neither http nor https should error")
	}
}

func TestProxySetsVersionHeader(t *testing.T) {
	var gotVersion atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotVersion.Store(r.Header.Get("X-Experiment-Version"))
	}))
	defer srv.Close()

	tbl := NewTable()
	_ = tbl.Set(Route{Service: "s", Backends: []Backend{{Version: "v7", Weight: 1}}})
	p := NewProxy("s", tbl)
	defer p.Close()
	_ = p.RegisterUpstream("v7", srv.URL)
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.Get(front.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotVersion.Load() != "v7" {
		t.Errorf("X-Experiment-Version = %v", gotVersion.Load())
	}
}

func TestProxyCountsMirrorDrops(t *testing.T) {
	// A worker-less proxy with a tiny mirror queue: the first job fits,
	// everything past it must be dropped — and counted, since silent
	// drops bias dark-launch sample counts.
	p := &Proxy{
		service: "s",
		table:   NewTable(),
		targets: make(map[string]upstream),
		mirror:  make(chan mirrorJob, 1),
		closed:  make(chan struct{}),
	}
	req := httptest.NewRequest(http.MethodGet, "/checkout", nil)
	p.enqueueMirrors(req, []string{"v2"})
	if got := p.MirrorDrops(); got != 0 {
		t.Fatalf("drops after first enqueue = %d, want 0", got)
	}
	p.enqueueMirrors(req, []string{"v2"})
	p.enqueueMirrors(req, []string{"v2", "v3"})
	if got := p.MirrorDrops(); got != 3 {
		t.Errorf("drops = %d, want 3 (queue capacity 1)", got)
	}
}

// mirroredProxy fronts primary as v1 and dark as the mirrored v2-dark.
func mirroredProxy(t *testing.T, primary, dark http.Handler, mirrorTimeout time.Duration) *Proxy {
	t.Helper()
	tbl := NewTable()
	if err := tbl.Set(Route{
		Service:  "catalog",
		Backends: []Backend{{Version: "v1", Weight: 1}},
		Mirrors:  []string{"v2-dark"},
	}); err != nil {
		t.Fatal(err)
	}
	p := newProxy("catalog", tbl, mirrorTimeout)
	for version, h := range map[string]http.Handler{"v1": primary, "v2-dark": dark} {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		if err := p.RegisterUpstream(version, srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// A body too long to mirror must still reach the primary whole; only
// the mirror is given up, and counted.
func TestProxyMirrorKeepsPrimaryBodyWhole(t *testing.T) {
	var primaryGot, darkGot, darkHits atomic.Int64
	p := mirroredProxy(t,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := io.Copy(io.Discard, r.Body)
			primaryGot.Store(n)
		}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := io.Copy(io.Discard, r.Body)
			darkGot.Store(n)
			darkHits.Add(1)
		}),
		mirrorTimeout)
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	for _, size := range []int{mirrorBodyCap, mirrorBodyCap + 1, 2 * mirrorBodyCap} {
		drops := p.MirrorDrops()
		resp, err := http.Post(front.URL+"/upload", "application/octet-stream", bytes.NewReader(make([]byte, size)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%d-byte upload: status %d", size, resp.StatusCode)
		}
		if got := primaryGot.Load(); got != int64(size) {
			t.Errorf("%d-byte upload: the primary received %d bytes", size, got)
		}
		wantDrops := uint64(0)
		if size > mirrorBodyCap {
			wantDrops = 1
		}
		if got := p.MirrorDrops() - drops; got != wantDrops {
			t.Errorf("%d-byte upload: %d mirror drops, want %d", size, got, wantDrops)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for darkHits.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hits, got := darkHits.Load(), darkGot.Load(); hits != 1 || got != mirrorBodyCap {
		t.Errorf("the candidate saw %d uploads, the last of %d bytes; want only the one at the cap", hits, got)
	}
}

// agent.RegisterProxy closes the proxy it replaces while handlers may
// still be inside it: Close must not race the mirror enqueue.
func TestProxyCloseDuringMirroredRequests(t *testing.T) {
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	p := mirroredProxy(t, nop, nop, mirrorTimeout)

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	halfway := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i == perClient/2 {
					halfway <- struct{}{}
				}
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	<-halfway
	p.Close()
	wg.Wait()
	before := p.MirrorDrops()
	p.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	if got := p.MirrorDrops() - before; got != 1 {
		t.Errorf("a mirror enqueued after Close counted %d drops, want 1", got)
	}
}

// Candidates that never answer must not hold the mirror workers for
// good: once the timeout frees them, later mirrors still go out.
func TestProxyMirrorTimeoutFreesWorkers(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	p := mirroredProxy(t,
		http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) <= mirrorWorkers {
				<-release // hangs
			}
		}),
		50*time.Millisecond)
	defer p.Close()
	defer close(release) // before the servers close, which waits for their handlers

	for i := 0; i < mirrorWorkers+1; i++ {
		p.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	}
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() <= mirrorWorkers && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := hits.Load(); got != mirrorWorkers+1 {
		t.Errorf("the candidate saw %d mirrors, want %d: hung requests still hold the workers", got, mirrorWorkers+1)
	}
}

// Header keys arrive canonicalised by net/http; a rule written in
// another case must still match through the proxy.
func TestProxyHeaderRuleAnyCase(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(Route{
		Service:  "catalog",
		Backends: []Backend{{Version: "v1", Weight: 1}},
		Rules:    []Rule{{Name: "qa", Match: HeaderMatcher{Key: "x-qa", Value: "1"}, Version: "v2"}},
	}); err != nil {
		t.Fatal(err)
	}
	p := NewProxy("catalog", tbl)
	defer p.Close()
	_ = p.RegisterUpstream("v1", backendServer(t, "v1", nil).URL)
	_ = p.RegisterUpstream("v2", backendServer(t, "v2", nil).URL)

	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-QA", "1")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	if got := rec.Body.String(); got != "hello from v2" {
		t.Errorf("request with X-QA: 1 got %q", got)
	}
}
