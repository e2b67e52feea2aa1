package router

import (
	"bufio"
	"bytes"
	"crypto/x509"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// shopProxy returns a proxy that sends every request for "shop" to
// baseURL; the caller closes it.
func shopProxy(t *testing.T, baseURL string) *Proxy {
	t.Helper()
	tbl := NewTable()
	if err := tbl.Set(Route{Service: "shop", Backends: []Backend{{Version: "v1", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	p := NewProxy("shop", tbl)
	if err := p.RegisterUpstream("v1", baseURL); err != nil {
		t.Fatal(err)
	}
	return p
}

// serve runs one request through p and returns what it answered.
func serve(p *Proxy, method, target, body string) *httptest.ResponseRecorder {
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(method, target, r))
	return rec
}

// connStates counts an upstream server's connection state changes.
type connStates struct {
	mu sync.Mutex
	n  map[http.ConnState]int
}

func (c *connStates) hook(_ net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[http.ConnState]int)
	}
	c.n[s]++
}

func (c *connStates) count(s http.ConnState) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[s]
}

// awaitAllClosed waits until the server has seen every connection it
// accepted close, and reports how many it accepted.
func (c *connStates) awaitAllClosed(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		opened, closed := c.count(http.StateNew), c.count(http.StateClosed)
		if opened == closed {
			return opened
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d upstream connections opened, %d closed", opened, closed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingUpstream is an upstream that answers "ok" to every request
// after reading its body, and counts its connections.
func countingUpstream(t *testing.T, h http.HandlerFunc) (*httptest.Server, *connStates) {
	t.Helper()
	states := &connStates{}
	if h == nil {
		h = func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			_, _ = io.WriteString(w, "ok")
		}
	}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = states.hook
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, states
}

// rawUpstream accepts connections on loopback and hands the i-th
// (from 0) to handle, which speaks HTTP itself.
func rawUpstream(t *testing.T, handle func(i int, conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				handle(i, conn, bufio.NewReader(conn))
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// Interim replies are the proxy's to absorb: the client sees the final
// reply alone.
func TestProxySkipsInterimReplies(t *testing.T) {
	upstream := rawUpstream(t, func(_ int, conn net.Conn, br *bufio.Reader) {
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		_, _ = io.WriteString(conn, "HTTP/1.1 100 Continue\r\n\r\n"+
			"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})
	p := shopProxy(t, upstream)
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	conn, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: shop.example\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	wire, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	got := string(wire)
	if !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") || !strings.HasSuffix(got, "\r\n\r\nok") ||
		strings.Contains(got, "Early Hints") || strings.Contains(got, "Link:") {
		t.Errorf("the client received %q; want the 200 alone", got)
	}
}

// An idle connection the upstream has closed is not used again, so a
// request that cannot be replayed still gets through.
func TestProxyIdleConnectionClosedByUpstream(t *testing.T) {
	srv, states := countingUpstream(t, nil)
	p := shopProxy(t, srv.URL)
	defer p.Close()
	for _, req := range []struct{ method, body string }{
		{http.MethodGet, ""}, {http.MethodPost, "hello"}, {http.MethodGet, ""},
	} {
		if rec := serve(p, http.MethodGet, "/warm", ""); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d", rec.Code)
		}
		srv.CloseClientConnections()
		states.awaitAllClosed(t)
		time.Sleep(20 * time.Millisecond) // for the FIN to reach the proxy's socket
		if rec := serve(p, req.method, "/after-close", req.body); rec.Code != http.StatusOK || rec.Body.String() != "ok" {
			t.Errorf("%s after the upstream closed the idle connection: %d %q", req.method, rec.Code, rec.Body)
		}
	}
}

// A reused connection that dies once the upstream has read the request:
// a replayable request is sent once more on a fresh connection, any
// other fails with a 502 and reaches the upstream once.
func TestProxyRetriesOnlyReplayableRequests(t *testing.T) {
	for _, c := range []struct {
		name       string
		method     string
		body       string
		freshServe bool   // a fresh connection answers instead of dying too
		wantStatus int    // what the client gets for the second request
		wantSeen   string // what the upstream read, one request a line
	}{
		{"GET retried", http.MethodGet, "", true, http.StatusOK,
			"GET /first\nGET /second\nGET /second\n"},
		{"GET retried only once", http.MethodGet, "", false, http.StatusBadGateway,
			"GET /first\nGET /second\nGET /second\n"},
		{"POST with a body not retried", http.MethodPost, "data", true, http.StatusBadGateway,
			"GET /first\nPOST /second data\n"},
		{"POST without a body not retried", http.MethodPost, "", true, http.StatusBadGateway,
			"GET /first\nPOST /second\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen strings.Builder
			upstream := rawUpstream(t, func(i int, conn net.Conn, br *bufio.Reader) {
				for n := 0; ; n++ {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					body, _ := io.ReadAll(req.Body)
					mu.Lock()
					seen.WriteString(strings.TrimSpace(req.Method + " " + req.URL.Path + " " + string(body)))
					seen.WriteString("\n")
					mu.Unlock()
					if (i == 0 && n > 0) || (i > 0 && !c.freshServe) {
						return // hang up without a reply
					}
					_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				}
			})
			p := shopProxy(t, upstream)
			defer p.Close()
			if rec := serve(p, http.MethodGet, "/first", ""); rec.Code != http.StatusOK {
				t.Fatalf("first request: status %d", rec.Code)
			}
			if rec := serve(p, c.method, "/second", c.body); rec.Code != c.wantStatus {
				t.Errorf("second request: status %d, want %d", rec.Code, c.wantStatus)
			}
			mu.Lock()
			defer mu.Unlock()
			if got := seen.String(); got != c.wantSeen {
				t.Errorf("the upstream read:\n%s\nwant:\n%s", got, c.wantSeen)
			}
		})
	}
}

// An upstream may answer before it has read the request body, and hang
// up: the client still gets that answer. The 1 MiB body fits in the
// loopback socket buffers; 16 MiB does not, so sending it fails once the
// upstream hangs up, and the answer is read after that failure.
func TestProxyRelaysReplyToUnreadBody(t *testing.T) {
	srv, _ := countingUpstream(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too large", http.StatusRequestEntityTooLarge)
	})
	p := shopProxy(t, srv.URL)
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()
	for _, size := range []int{1 << 20, 16 << 20} {
		resp, err := http.Post(front.URL+"/upload", "application/octet-stream", bytes.NewReader(make([]byte, size)))
		if err != nil {
			t.Fatalf("%d-byte upload: %v", size, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || strings.TrimSpace(string(body)) != "too large" {
			t.Errorf("%d-byte upload: the client got %d %q; want the upstream's 413", size, resp.StatusCode, body)
		}
	}
}

// A request body that fails mid-way leaves the upstream waiting for
// the rest: the proxy answers 502 at once rather than wait for a reply.
func TestProxyRequestBodyFails(t *testing.T) {
	srv, _ := countingUpstream(t, nil)
	p := shopProxy(t, srv.URL)
	defer p.Close()
	req := httptest.NewRequest(http.MethodPost, "/upload", nil)
	req.Body = io.NopCloser(io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(errors.New("client gone"))))
	req.ContentLength = 100
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusBadGateway {
			t.Errorf("status %d, want 502", code)
		}
	case <-time.After(5 * time.Second):
		srv.CloseClientConnections() // frees the upstream handler and the proxy
		t.Fatal("the proxy is still waiting for a reply to a request it could not send")
	}
}

// A keep-alive reply leaves its connection for the next request, with
// or without a body; one that says "Connection: close" does not, even
// when the upstream keeps the connection open.
func TestProxyConnectionCloseDialsAgain(t *testing.T) {
	var dials atomic.Int64
	upstream := rawUpstream(t, func(_ int, conn net.Conn, br *bufio.Reader) {
		dials.Add(1)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			reply := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
			switch {
			case req.URL.Query().Has("close"):
				reply = "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
			case req.URL.Path == "/empty":
				reply = "HTTP/1.1 204 No Content\r\n\r\n"
			}
			if _, err := io.WriteString(conn, reply); err != nil {
				return
			}
		}
	})
	p := shopProxy(t, upstream)
	defer p.Close()
	for i, step := range []struct {
		target string
		dials  int64 // upstream connections opened so far
	}{
		{"/", 1}, {"/", 1}, {"/empty", 1}, {"/", 1}, {"/?close", 1}, {"/", 2}, {"/", 2},
	} {
		if rec := serve(p, http.MethodGet, step.target, ""); rec.Code/100 != 2 {
			t.Fatalf("request %d (%s): status %d", i, step.target, rec.Code)
		}
		if got := dials.Load(); got != step.dials {
			t.Errorf("after request %d (%s): %d connections opened, want %d", i, step.target, got, step.dials)
		}
	}
}

// Close closes the idle connections, and a connection whose request
// ends after Close is closed rather than kept: once the last request
// has left, every connection the proxy opened is closed.
func TestProxyCloseLeavesNoConnection(t *testing.T) {
	held := make(chan struct{}, 8)
	release := make(chan struct{})
	srv, states := countingUpstream(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("hold") {
			held <- struct{}{}
			<-release
		}
		if r.URL.Query().Has("empty") {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		_, _ = io.WriteString(w, "ok")
	})
	p := shopProxy(t, srv.URL)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // idle connections for Close to find
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(p, http.MethodGet, "/", "")
		}()
	}
	wg.Wait()
	targets := []string{"/?hold", "/?hold&empty", "/?hold", "/?hold&empty"}
	codes := make([]int, len(targets))
	for i, target := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = serve(p, http.MethodGet, target, "").Code
		}()
	}
	for range targets {
		<-held
	}
	p.Close()
	close(release)
	wg.Wait()
	for i, code := range codes {
		if want := map[bool]int{false: http.StatusOK, true: http.StatusNoContent}[strings.Contains(targets[i], "empty")]; code != want {
			t.Errorf("%s in flight across Close: status %d, want %d", targets[i], code, want)
		}
	}
	if opened := states.awaitAllClosed(t); opened < len(targets) {
		t.Errorf("%d upstream connections opened, want at least %d", opened, len(targets))
	}
}

// An https upstream is verified against the proxy's roots and reached
// over HTTP/1.1, its connection kept for the next request.
func TestProxyHTTPSUpstream(t *testing.T) {
	states := &connStates{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.TLS == nil || r.ProtoMajor != 1 {
			t.Errorf("upstream got %s, TLS %v", r.Proto, r.TLS != nil)
		}
		_, _ = io.WriteString(w, "secure")
	}))
	srv.Config.ConnState = states.hook
	srv.StartTLS()
	defer srv.Close()

	tbl := NewTable()
	if err := tbl.Set(Route{Service: "shop", Backends: []Backend{{Version: "v1", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	p := NewProxy("shop", tbl)
	defer p.Close()
	p.roots = x509.NewCertPool()
	p.roots.AddCert(srv.Certificate())
	if err := p.RegisterUpstream("v1", srv.URL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rec := serve(p, http.MethodGet, "/", ""); rec.Code != http.StatusOK || rec.Body.String() != "secure" {
			t.Fatalf("request %d: %d %q", i, rec.Code, rec.Body)
		}
	}
	if got := states.count(http.StateNew); got != 1 {
		t.Errorf("%d TLS connections opened for three requests, want 1", got)
	}

	// Without the roots the certificate does not verify.
	untrusting := shopProxy(t, srv.URL)
	defer untrusting.Close()
	if rec := serve(untrusting, http.MethodGet, "/", ""); rec.Code != http.StatusBadGateway {
		t.Errorf("unverified upstream: status %d, want 502", rec.Code)
	}
}
