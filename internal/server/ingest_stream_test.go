package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tenancy"
	"contexp/internal/wire"
)

// rawStream is the client side of one telemetry stream, driven frame by
// frame: a POST whose body is a pipe and whose Accept names the ack
// stream, as wire.Client opens it.
type rawStream struct {
	t    *testing.T
	pw   *io.PipeWriter
	got  chan streamOpen
	resp *http.Response
}

type streamOpen struct {
	resp *http.Response
	err  error
}

func openRawStream(t *testing.T, url, token string) *rawStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.AckContentType)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	st := &rawStream{t: t, pw: pw, got: make(chan streamOpen, 1)}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		st.got <- streamOpen{resp, err}
	}()
	t.Cleanup(func() {
		_ = pw.Close()
		if st.resp != nil {
			_ = st.resp.Body.Close()
		}
	})
	return st
}

// write hands b, a frame or a part of one, to the transport.
func (st *rawStream) write(b []byte) {
	st.t.Helper()
	if _, err := st.pw.Write(b); err != nil {
		st.t.Fatalf("writing into the stream: %v", err)
	}
}

// within runs f, failing the test if it has not returned in 10 s: a
// server that waits for bytes the client never sends shows as a
// failure, not as a hung test.
func (st *rawStream) within(what string, f func()) {
	st.t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		st.t.Fatalf("no %s within 10s", what)
	}
}

// response waits for the answer to the open.
func (st *rawStream) response() *http.Response {
	st.t.Helper()
	if st.resp == nil {
		var o streamOpen
		st.within("response", func() { o = <-st.got })
		if o.err != nil {
			st.t.Fatal(o.err)
		}
		st.resp = o.resp
	}
	return st.resp
}

// ack reads the next ack: its status, Retry-After and body.
func (st *rawStream) ack() (status, retryAfter int, body string) {
	st.t.Helper()
	resp := st.response()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.AckContentType {
		st.t.Fatalf("open answered %d %q, want an ack stream", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var hdr [wire.AckHeaderSize]byte
	var b []byte
	var err error
	st.within("ack", func() {
		if _, err = io.ReadFull(resp.Body, hdr[:]); err != nil {
			return
		}
		b = make([]byte, binary.LittleEndian.Uint32(hdr[4:]))
		_, err = io.ReadFull(resp.Body, b)
	})
	if err != nil {
		st.t.Fatalf("reading an ack: %v", err)
	}
	return int(binary.LittleEndian.Uint16(hdr[0:])), int(binary.LittleEndian.Uint16(hdr[2:])), string(b)
}

// ended checks that the server ended the stream after its last ack.
func (st *rawStream) ended() {
	st.t.Helper()
	var n int
	var err error
	st.within("end of the stream", func() {
		var one [1]byte
		n, err = st.response().Body.Read(one[:])
	})
	if n != 0 || err != io.EOF {
		st.t.Fatalf("after the last ack: %d bytes, %v; want the end of the stream", n, err)
	}
}

// newStreamEnv is the full chain — auth, a logger, and mutate's
// additions — in front of the ingest endpoints; the log lines it wrote
// are returned by the second result.
func newStreamEnv(t *testing.T, mutate func(*Config)) (*env, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	e := newCustomEnv(t, func(c *Config) {
		c.Auth = testResolver(t)
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		if mutate != nil {
			mutate(c)
		}
	})
	return e, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

// wantStreamLogLine waits for the access log's line for a stream and
// checks that it is the only one, that it carries want, and that it
// names the stream's tenant.
func wantStreamLogLine(t *testing.T, logLines func() []string, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(logLines()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if lines := logLines(); len(lines) != 1 || !strings.Contains(lines[0], want) ||
		!strings.Contains(lines[0], "tenant=acme") {
		t.Fatalf("access log %q, want one line for the stream with %q", lines, want)
	}
}

// streamSamples is n samples of metric on svc/v1.
func streamSamples(metric string, n int) []metrics.Sample {
	out := make([]metrics.Sample, n)
	for i := range out {
		out[i] = goodSample(i)
		out[i].Metric = metric
		out[i].Scope.Variant = ""
	}
	return out
}

// stored counts what acme's store holds of metric on svc/v1; -1 when
// there is no such series.
func (e *env) stored(metric string) int {
	n, err := e.store.Query(metric, metrics.Scope{Tenant: "acme", Service: "svc", Version: "v1"}, time.Time{}, metrics.AggCount)
	if err != nil {
		return -1
	}
	return int(n)
}

// TestIngestStreamRefusedFrameEndsStream: frames 1–3 are good, frame 4
// is not. Each good frame is stored and acked 202 with the one-frame
// reply; frame 4 stores nothing, its ack carries the 400 a one-frame
// POST would get, and the server ends the stream after it. The access
// log has one line for the stream, with frame 4's status.
func TestIngestStreamRefusedFrameEndsStream(t *testing.T) {
	nan := streamSamples("m4", 3)
	nan[1].Value = math.NaN()
	for _, tt := range []struct {
		name    string
		frame4  []byte
		wantSub string
	}{
		{"undecodable", hostileMetricsFrame(func(b []byte, cols, count int) { b[cols] = byte(count) }, streamSamples("m4", 1)...),
			"out of dictionary range"},
		{"cut short", binMetricsFrame(streamSamples("m4", 2)...)[:20], "frame body of length"},
		{"invalid sample", binMetricsFrame(nan...), "observation 1: value must be finite"},
		{"cross-kind", binSpansFrame(goodSpan(0)), "kind"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e, logLines := newStreamEnv(t, nil)
			st := openRawStream(t, e.ts.URL+"/v1/metrics", "tok-a")
			for i := 1; i <= 3; i++ {
				st.write(binMetricsFrame(streamSamples(fmt.Sprintf("m%d", i), i)...))
				status, _, body := st.ack()
				if want := fmt.Sprintf("{\n  \"accepted\": %d\n}\n", i); status != http.StatusAccepted || body != want {
					t.Fatalf("frame %d: ack %d %q, want 202 %q", i, status, body, want)
				}
				if n := e.stored(fmt.Sprintf("m%d", i)); n != i {
					t.Fatalf("frame %d: %d samples stored once acked, want %d", i, n, i)
				}
			}
			if tt.name == "cut short" {
				st.write(tt.frame4)
				_ = st.pw.Close() // the stream ends inside the frame
			} else {
				st.write(tt.frame4)
			}
			status, _, body := st.ack()
			if status != http.StatusBadRequest || envelopeCode(t, body) != "invalid_request" || !strings.Contains(body, tt.wantSub) {
				t.Fatalf("frame 4: ack %d %s, want 400 mentioning %q", status, body, tt.wantSub)
			}
			st.ended()
			if n := e.stored("m4"); n != -1 {
				t.Fatalf("a refused frame stored %d samples", n)
			}
			if n := e.store.SeriesCount(); n != 3 {
				t.Fatalf("%d series, want 3", n)
			}
			_ = st.pw.Close()
			wantStreamLogLine(t, logLines, "POST /v1/metrics status=400")
		})
	}
}

// TestIngestStreamFrameSizeLimit: MaxBodyBytes holds each frame, by the
// length its header declares. An oversized frame is answered 413 from
// its header alone — the client here never sends the body, so a server
// that waited for it would not answer — and a stream whose frames
// together pass the limit stays healthy.
func TestIngestStreamFrameSizeLimit(t *testing.T) {
	e, _ := newStreamEnv(t, func(c *Config) { c.MaxBodyBytes = 4096 })
	frame := binMetricsFrame(streamSamples("m1", 150)...)
	if len(frame) < 1024 || 4*len(frame) < 4096 {
		t.Fatalf("a %d-byte frame does not exercise a 4 KiB limit", len(frame))
	}
	st := openRawStream(t, e.ts.URL+"/v1/metrics", "tok-a")
	for i := 0; i < 4; i++ {
		st.write(frame)
		if status, _, body := st.ack(); status != http.StatusAccepted {
			t.Fatalf("frame %d: ack %d %s", i, status, body)
		}
	}
	huge := binary.LittleEndian.AppendUint32([]byte{'C', 'X', wire.Version, wire.KindMetrics}, 1<<20)
	st.write(huge)
	status, _, body := st.ack()
	if status != http.StatusRequestEntityTooLarge || envelopeCode(t, body) != "too_large" {
		t.Fatalf("oversized frame: ack %d %s, want 413", status, body)
	}
	st.ended()
	if n := e.stored("m1"); n != 4*150 {
		t.Fatalf("%d samples stored, want %d", n, 4*150)
	}
}

// TestIngestStreamRateLimit: the middleware charges the open, and the
// stream charges every later frame. With a bucket of three, frames 1–3
// are stored and frame 4 gets a 429 ack with its Retry-After, stores
// nothing, and ends the stream; the access log reports the stream's 429.
func TestIngestStreamRateLimit(t *testing.T) {
	limiter := tenancy.NewLimiter(0.000001, 3)
	e, logLines := newStreamEnv(t, func(c *Config) { c.RateLimit = limiter })
	st := openRawStream(t, e.ts.URL+"/v1/metrics", "tok-a")
	for i := 1; i <= 3; i++ {
		st.write(binMetricsFrame(streamSamples(fmt.Sprintf("m%d", i), 1)...))
		if status, _, body := st.ack(); status != http.StatusAccepted {
			t.Fatalf("frame %d: ack %d %s", i, status, body)
		}
	}
	st.write(binMetricsFrame(streamSamples("m4", 1)...))
	status, retryAfter, body := st.ack()
	if status != http.StatusTooManyRequests || retryAfter < 1 || envelopeCode(t, body) != "rate_limited" {
		t.Fatalf("frame 4: ack %d, Retry-After %d, %s; want 429 with a Retry-After", status, retryAfter, body)
	}
	st.ended()
	if n := e.stored("m4"); n != -1 {
		t.Fatalf("a throttled frame stored %d samples", n)
	}
	if u := limiter.Stats()["acme"]; u.Requests != 4 || u.Throttled != 1 {
		t.Fatalf("acme charged %d times and throttled %d, want 4 and 1", u.Requests, u.Throttled)
	}
	_ = st.pw.Close()
	wantStreamLogLine(t, logLines, "POST /v1/metrics status=429")
}

// TestIngestStreamBadToken: auth refuses the open itself, with a plain
// 401, while the client's stream is still open, with and without a
// writer that can stream; and a wire.Client with the bad token gets the
// error from its flush.
func TestIngestStreamBadToken(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(fmt.Sprintf("plain=%v", plain), func(t *testing.T) {
			e, _ := newStreamEnv(t, nil)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if plain {
					w = plainWriter{w}
				}
				e.server.Handler().ServeHTTP(w, r)
			}))
			defer ts.Close()
			st := openRawStream(t, ts.URL+"/v1/metrics", "nope")
			st.write(binMetricsFrame(streamSamples("m1", 1)...))
			resp := st.response()
			var body []byte
			st.within("401 body", func() { body, _ = io.ReadAll(resp.Body) })
			if resp.StatusCode != http.StatusUnauthorized || envelopeCode(t, string(body)) != "unauthorized" {
				t.Fatalf("open with a bad token: %d %s, want 401", resp.StatusCode, body)
			}
			_ = st.pw.Close()

			c := wire.NewClient(ts.URL, ts.Client(), 1<<20)
			defer c.Close()
			c.SetToken("nope")
			c.RecordBatch(streamSamples("m2", 1))
			if err := c.Flush(); err == nil || !strings.Contains(err.Error(), "401") {
				t.Fatalf("flush with a bad token: %v, want a 401", err)
			}
			if c.Errors() != 1 || e.store.SeriesCount() != 0 {
				t.Fatalf("%d client errors, %d series; want 1 and 0", c.Errors(), e.store.SeriesCount())
			}
		})
	}
}

// plainWriter hides every optional interface of the ResponseWriter it
// wraps, Unwrap included, as a measuring wrapper may.
type plainWriter struct{ http.ResponseWriter }

// TestIngestStreamOneFramePerRequest: a wire.Client stores every frame
// on both kinds of server. Where the chain reaches the connection, five
// flushes ride one request; behind a writer without Unwrap the server
// answers the stream's first frame alone, and the client posts each
// later frame as a request of its own.
func TestIngestStreamOneFramePerRequest(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(fmt.Sprintf("plain=%v", plain), func(t *testing.T) {
			e, _ := newStreamEnv(t, nil)
			var requests atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if plain {
					w = plainWriter{w}
				}
				e.server.Handler().ServeHTTP(w, r)
			}))
			defer ts.Close()
			c := wire.NewClient(ts.URL, ts.Client(), 1<<20)
			defer c.Close()
			c.SetToken("tok-a")
			for i := 1; i <= 5; i++ {
				c.RecordBatch(streamSamples(fmt.Sprintf("m%d", i), i))
				if err := c.Flush(); err != nil {
					t.Fatalf("flush %d: %v", i, err)
				}
				if n := e.stored(fmt.Sprintf("m%d", i)); n != i {
					t.Fatalf("flush %d: %d samples stored, want %d", i, n, i)
				}
			}
			want := int64(1)
			if plain {
				want = 5
			}
			if n := requests.Load(); n != want {
				t.Fatalf("%d requests for 5 flushes, want %d", n, want)
			}
			if c.Flushes() != 5 || c.Errors() != 0 {
				t.Fatalf("client counted %d flushes and %d errors, want 5 and 0", c.Flushes(), c.Errors())
			}
		})
	}
}

// TestIngestStreamServerGoesAway: the server closes while a stream is
// open and idle. The client notices with no flush — its goroutines and
// connections go, back to the count before it was made — the next
// flush fails once with no server to reach, and once a server listens
// on the address again the flush after it succeeds on a new stream.
func TestIngestStreamServerGoesAway(t *testing.T) {
	e, _ := newStreamEnv(t, nil)
	serve := func(ln net.Listener) *httptest.Server {
		ts := httptest.NewUnstartedServer(e.server.Handler())
		_ = ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		return ts
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ts := serve(ln)
	settle := func(want int) int {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := runtime.NumGoroutine()

	transport := &http.Transport{}
	c := wire.NewClient("http://"+addr, &http.Client{Transport: transport}, 1<<20)
	c.SetToken("tok-a")
	flush := func(metric string) error {
		c.RecordBatch(streamSamples(metric, 1))
		return c.Flush()
	}
	if err := flush("m1"); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections()
	ts.Close()
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines once the server closed, %d before the client: the stream outlived its server", n, before)
	}

	if err := flush("m2"); err == nil {
		t.Fatal("a flush with no server succeeded")
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	ts = serve(ln)
	defer ts.Close()
	if err := flush("m3"); err != nil {
		t.Fatalf("flush once the server is back: %v", err)
	}
	if c.Errors() != 1 || e.stored("m3") != 1 || e.stored("m2") != -1 {
		t.Fatalf("errors %d, m2 %d, m3 %d; want 1, none, 1", c.Errors(), e.stored("m2"), e.stored("m3"))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	transport.CloseIdleConnections()
	if n := settle(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before the client", n, before)
	}
}

// fullDuplexRecorder is a ResponseWriter that can stream, for driving
// the frame loop without a connection: acks collect in body.
type fullDuplexRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (f *fullDuplexRecorder) Header() http.Header { return f.header }

func (f *fullDuplexRecorder) WriteHeader(code int) {
	if f.status == 0 {
		f.status = code
	}
}

func (f *fullDuplexRecorder) Write(b []byte) (int, error) {
	f.WriteHeader(http.StatusOK)
	return f.body.Write(b)
}

func (f *fullDuplexRecorder) Flush() {}

func (f *fullDuplexRecorder) EnableFullDuplex() error { return nil }

// FuzzIngestStream feeds the frame loop arbitrary stream bodies —
// frames back to back, cut, oversized, of the other kind — under a 4 KiB
// frame limit. The acks must answer the body's frames in order, one
// each, up to and including the first refused one; a 202-acked frame
// must decode, and the store must hold a series only if a 202-acked
// frame carried it: no sample from a frame that failed reaches it.
func FuzzIngestStream(f *testing.F) {
	good := func(metric string, n int) []byte { return binMetricsFrame(streamSamples(metric, n)...) }
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	big := make([]metrics.Sample, 300)
	for i := range big {
		big[i] = goodSample(i)
		big[i].Metric = fmt.Sprintf("metric-%d", i)
	}
	f.Add(cat(good("a", 1), good("b", 2), good("c", 3)))
	f.Add(cat(good("a", 1), good("b", 2)[:15]))
	f.Add(cat(good("a", 1), binMetricsFrame(big...), good("c", 1)))
	f.Add(cat(good("a", 1), binSpansFrame(goodSpan(0)), good("c", 1)))
	f.Add(cat(good("a", 2), []byte("garbage"), good("c", 1)))
	nan := streamSamples("b", 2)
	nan[1].Value = math.NaN()
	f.Add(cat(good("a", 1), binMetricsFrame(nan...), good("c", 1)))
	f.Add(binary.LittleEndian.AppendUint32([]byte{'C', 'X', wire.Version, wire.KindMetrics}, 1<<30))
	const maxBody = 4096 - wire.HeaderSize
	table := router.NewTable()
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: metrics.NewStore(0)})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		store := metrics.NewStore(0)
		s, err := New(Config{Engine: engine, Table: table, Store: store, MaxBodyBytes: maxBody + wire.HeaderSize})
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/metrics", bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentType)
		r.Header.Set("Accept", wire.AckContentType)
		w := &fullDuplexRecorder{header: make(http.Header)}
		s.Handler().ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("stream answered %d", w.status)
		}

		accepted := make(map[metrics.Scope]map[string]bool)
		frames := bytes.NewReader(body)
		acks := w.body.Bytes()
		var frame []byte
		refused := false
		for len(acks) > 0 && !refused {
			if len(acks) < wire.AckHeaderSize {
				t.Fatalf("%d bytes of a cut ack", len(acks))
			}
			status := int(binary.LittleEndian.Uint16(acks))
			n := wire.AckHeaderSize + int(binary.LittleEndian.Uint32(acks[4:]))
			if n > len(acks) {
				t.Fatalf("ack of %d bytes, %d left", n, len(acks))
			}
			acks = acks[n:]
			if refused = status != http.StatusAccepted; refused {
				if len(acks) > 0 {
					t.Fatalf("%d bytes of acks after a %d", len(acks), status)
				}
				continue
			}
			var err error
			if frame, err = wire.ReadFrame(frames, frame, maxBody); err != nil {
				t.Fatalf("a 202 for a frame the body does not hold: %v", err)
			}
			var dec wire.MetricsDecoder
			samples, err := dec.Decode(frame)
			if err != nil {
				t.Fatalf("an acked frame does not decode: %v", err)
			}
			for _, s := range samples {
				if accepted[s.Scope] == nil {
					accepted[s.Scope] = make(map[string]bool)
				}
				accepted[s.Scope][s.Metric] = true
			}
		}
		if !refused && frames.Len() > 0 {
			t.Fatalf("the acks ended with %d bytes of the body unanswered", frames.Len())
		}
		series := 0
		for _, m := range accepted {
			series += len(m)
		}
		if n := store.SeriesCount(); n > series {
			t.Fatalf("the store holds %d series, the acked frames carried %d", n, series)
		}
	})
}
