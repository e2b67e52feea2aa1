package wire

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/metrics"
)

// newStubServer accepts binary frames on /v1/metrics and /v1/spans,
// validates them with the real decoders, and counts posts.
func newStubServer(t *testing.T, onPost func()) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading stub body: %v", err)
		}
		if ct := r.Header.Get("Content-Type"); ct != ContentType {
			t.Errorf("Content-Type = %q", ct)
		}
		switch r.URL.Path {
		case "/v1/metrics":
			var d MetricsDecoder
			if _, err := d.Decode(body); err != nil {
				t.Errorf("decoding metrics frame: %v", err)
			}
		case "/v1/spans":
			var d SpansDecoder
			if _, err := d.Decode(body); err != nil {
				t.Errorf("decoding spans frame: %v", err)
			}
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		onPost()
		w.WriteHeader(http.StatusAccepted)
	}))
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
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var d MetricsDecoder
		samples, err := d.Decode(body)
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
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	const batch = 64
	c := NewClient(srv.URL, srv.Client(), batch)
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
// defaults, whose write buffer is 4 KiB, a fleet's 256-sample flush —
// request line, headers and frame — leaves in one write to the
// connection. Two shapes: distinctSamples, 256 series with At unset,
// and a rollback's batch of 256 rows for one service's v1 and v2, all
// stamped with one instant.
func TestFleetFlushIsOneWrite(t *testing.T) {
	var writes atomic.Int64
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return writeCounter{Conn: conn, writes: &writes}, nil
		},
	}
	defer transport.CloseIdleConnections()
	srv := newStubServer(t, func() {})
	defer srv.Close()

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
		c := NewClient(srv.URL, &http.Client{Transport: transport}, len(tt.samples)+1)
		c.RecordBatch(tt.samples)
		writes.Store(0)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := writes.Load(); n != 1 {
			t.Errorf("%s: the flush took %d writes, want 1", tt.name, n)
		}
	}
}
