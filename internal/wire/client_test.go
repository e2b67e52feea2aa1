package wire

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/metrics"
)

// newStubServer accepts binary frames on /v1/metrics and /v1/spans,
// validates them with the real decoders, and calls onFrame for each.
func newStubServer(t *testing.T, onFrame func()) *httptest.Server {
	t.Helper()
	return httptest.NewServer(stubHandler(t, false, func(path string, frame []byte) {
		switch path {
		case "/v1/metrics":
			var d MetricsDecoder
			if _, err := d.Decode(frame); err != nil {
				t.Errorf("decoding metrics frame: %v", err)
			}
		case "/v1/spans":
			var d SpansDecoder
			if _, err := d.Decode(frame); err != nil {
				t.Errorf("decoding spans frame: %v", err)
			}
		default:
			t.Errorf("unexpected path %s", path)
		}
		onFrame()
	}))
}

// stubHandler speaks the server's side of the ingest protocol and
// accepts every frame once onFrame has seen it: a request that accepts
// acks gets a stream with one 202 ack per frame, any other a 202 for
// its one frame. A plain stub streams to no one: it answers a stream's
// first frame alone, as the control plane does behind a ResponseWriter
// that cannot stream.
func stubHandler(t *testing.T, plain bool, onFrame func(path string, frame []byte)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != ContentType {
			t.Errorf("Content-Type = %q", ct)
		}
		rc := http.NewResponseController(w)
		if r.Header.Get("Accept") != AckContentType || plain || rc.EnableFullDuplex() != nil {
			var body []byte
			var err error
			if r.Header.Get("Accept") == AckContentType {
				body, err = ReadFrame(r.Body, nil, 1<<20)
				w.Header().Set("Connection", "close")
			} else {
				body, err = io.ReadAll(r.Body)
			}
			if err != nil {
				t.Errorf("reading stub body: %v", err)
			}
			onFrame(r.URL.Path, body)
			w.WriteHeader(http.StatusAccepted)
			return
		}
		w.Header().Set("Content-Type", AckContentType)
		var frame, ack []byte
		for {
			var err error
			if frame, err = ReadFrame(r.Body, frame, 1<<20); err != nil {
				return
			}
			onFrame(r.URL.Path, frame)
			ack = AppendAck(ack[:0], http.StatusAccepted, 0, nil)
			if _, err := w.Write(ack); err != nil || rc.Flush() != nil {
				return
			}
		}
	})
}

// TestClientRecordsDuringFlush: a flush in flight — here one whose
// server does not answer until told to — must not hold up recorders,
// and swapping buffers under them must neither lose nor duplicate a
// sample: 10³ records from eight goroutines, some of them triggering
// flushes of their own, arrive exactly once each.
func TestClientRecordsDuringFlush(t *testing.T) {
	var (
		mu       sync.Mutex
		seen     = make(map[float64]int)
		entered  = make(chan struct{})
		release  = make(chan struct{})
		blocking sync.Once
	)
	srv := httptest.NewServer(stubHandler(t, false, func(_ string, frame []byte) {
		var d MetricsDecoder
		samples, err := d.Decode(frame)
		if err != nil {
			t.Errorf("decoding metrics frame: %v", err)
		}
		mu.Lock()
		for _, s := range samples {
			seen[s.Value]++
		}
		mu.Unlock()
		blocking.Do(func() {
			close(entered)
			<-release
		})
	}))
	defer srv.Close()
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	const batch = 64
	c := NewClient(srv.URL, srv.Client(), batch)
	defer c.Close()
	sample := func(v float64) metrics.Sample {
		return metrics.Sample{Metric: "m", Scope: metrics.Scope{Service: "svc", Version: "v1"}, Value: v}
	}
	c.RecordMetric(sample(-1))
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	<-entered // the first flush is on the wire and will stay there

	recorded := make(chan struct{})
	go func() {
		for v := 0; v < batch-1; v++ { // one short of triggering a flush
			c.RecordMetric(sample(float64(v)))
		}
		close(recorded)
	}()
	select {
	case <-recorded:
	case <-time.After(10 * time.Second):
		t.Fatal("RecordMetric did not return while a flush was in flight")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 125; i++ {
				c.RecordMetric(sample(float64(1000 + g*125 + i)))
			}
		}(g)
	}
	unblock.Do(func() { close(release) })
	wg.Wait()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := 1 + (batch - 1) + 1000
	if len(seen) != want {
		t.Errorf("server saw %d distinct samples, want %d", len(seen), want)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("sample %v arrived %d times", v, n)
		}
	}
	if c.Errors() != 0 {
		t.Errorf("client counted %d errors", c.Errors())
	}
}

// writeCounter counts Write calls on a connection.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFleetFlushIsOneWrite: over a transport left at net/http's
// defaults, whose write buffer is 4 KiB, a fleet's 256-sample flush
// leaves in one write to the connection: a chunk of an open stream, or
// — to a server that cannot stream — request line, headers and frame.
// Two shapes: distinctSamples, 256 series with At unset, and a
// rollback's batch of 256 rows for one service's v1 and v2, all stamped
// with one instant.
func TestFleetFlushIsOneWrite(t *testing.T) {
	// Writes are counted per connection: the flush is timed on the last
	// one dialed. The stream a plain server answered alone ends on its
	// own connection, which may still be writing the body's last chunk.
	var (
		mu    sync.Mutex
		conns []*atomic.Int64
	)
	lastConn := func() *atomic.Int64 {
		mu.Lock()
		defer mu.Unlock()
		return conns[len(conns)-1]
	}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			writes := new(atomic.Int64)
			mu.Lock()
			conns = append(conns, writes)
			mu.Unlock()
			return writeCounter{Conn: conn, writes: writes}, nil
		},
	}
	defer transport.CloseIdleConnections()

	rng := rand.New(rand.NewSource(7))
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	rollback := make([]metrics.Sample, 256)
	for i := range rollback {
		rollback[i] = metrics.Sample{Metric: "response_time",
			Scope: metrics.Scope{Service: "svc-3", Version: []string{"v1", "v2"}[i%2]},
			Value: 100 + 800*rng.Float64(), At: at}
	}
	for _, tt := range []struct {
		name    string
		samples []metrics.Sample
	}{
		{"distinct series, unstamped", distinctSamples()},
		{"rollback batch, one instant", rollback},
	} {
		for _, plain := range []bool{false, true} {
			srv := httptest.NewServer(stubHandler(t, plain, func(string, []byte) {}))
			c := NewClient(srv.URL, &http.Client{Transport: transport}, len(tt.samples)+1)
			// The first flush opens the stream, or learns that the server
			// cannot stream.
			c.RecordBatch(tt.samples)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			c.RecordBatch(tt.samples)
			lastConn().Store(0)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := lastConn().Load(); n != 1 {
				t.Errorf("%s, plain server %v: the flush took %d writes, want 1", tt.name, plain, n)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			srv.Close()
		}
	}
}

// TestClientFallsBackToServerThatReadsWholeBodies: a server that reads
// a body to its end before it answers — a control plane from before
// streams, or a proxy that buffers request bodies — never answers a
// stream while it is open. The client ends the body once the first
// frame has gone unanswered for streamWait, and posts every later frame
// as a request of its own: no flush hangs, none fails, and every frame
// arrives once.
func TestClientFallsBackToServerThatReadsWholeBodies(t *testing.T) {
	var requests, frames atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		var d MetricsDecoder
		if _, err := d.Decode(body); err != nil {
			t.Errorf("decoding the body as one frame: %v", err)
		}
		frames.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, "{\n  \"accepted\": 1\n}\n")
	}))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		c.RecordMetric(metrics.Sample{Metric: "m", Scope: metrics.Scope{Service: "svc", Version: "v1"}, Value: float64(i)})
		if d := time.Since(start); d > streamWait+5*time.Second {
			t.Fatalf("flush %d took %v", i, d)
		}
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v", d)
	}
	if c.Flushes() != 3 || c.Errors() != 0 || requests.Load() != 3 || frames.Load() != 3 {
		t.Fatalf("%d flushes, %d errors; the server saw %d requests and %d frames; want 3, 0, 3, 3",
			c.Flushes(), c.Errors(), requests.Load(), frames.Load())
	}
}

// TestClientEndsStreamOfWedgedServer: a server that acks every frame
// but never ends the response once the body has ended holds Close for
// streamWait, not for as long as it stays wedged: the client then
// cancels the request, and holds no goroutine once Close returns.
func TestClientEndsStreamOfWedgedServer(t *testing.T) {
	release := make(chan struct{})
	stub := stubHandler(t, false, func(string, []byte) {})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stub.ServeHTTP(w, r)
		select { // the body has ended; the response does not
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	before := runtime.NumGoroutine()
	c := NewClient(srv.URL, srv.Client(), 1)
	c.RecordMetric(metrics.Sample{Metric: "m", Scope: metrics.Scope{Service: "svc", Version: "v1"}, Value: 1})
	if c.Flushes() != 1 || c.Errors() != 0 {
		t.Fatalf("%d flushes, %d errors; want 1, 0", c.Flushes(), c.Errors())
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < streamWait || d > streamWait+5*time.Second {
		t.Fatalf("Close took %v, want about %v", d, streamWait)
	}
	c.hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before the client", n, before)
	}
}
