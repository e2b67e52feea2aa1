package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// newBinaryEnv is newTracingEnv with a configurable body cap, for
// exercising the binary ingestion limits.
func newBinaryEnv(t *testing.T, maxBody int64) (*env, *tracing.LiveCollector) {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	collector := tracing.NewLiveCollector(10_000)
	monitor := health.NewMonitor(collector, -1)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 50 * time.Millisecond,
		Topology:             monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:       engine,
		Table:        table,
		Store:        store,
		MaxBodyBytes: maxBody,
		Traces:       collector,
		Health:       monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}, collector
}

func (e *env) postBinary(path string, frame []byte) (int, string) {
	e.t.Helper()
	resp, err := e.ts.Client().Post(e.ts.URL+path, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	return resp.StatusCode, body.String()
}

func binMetricsFrame(samples ...metrics.Sample) []byte {
	var e wire.MetricsEncoder
	return append([]byte(nil), e.Encode(samples)...)
}

func binSpansFrame(spans ...tracing.Span) []byte {
	var e wire.SpansEncoder
	return append([]byte(nil), e.Encode(spans)...)
}

// hostileMetricsFrame is the frame of samples with mut applied to it;
// mut gets the offset of the first column, past the dictionary and the
// row count, and the dictionary's count.
func hostileMetricsFrame(mut func(b []byte, cols, count int), samples ...metrics.Sample) []byte {
	b := binMetricsFrame(samples...)
	count := int(binary.LittleEndian.Uint32(b[wire.HeaderSize:]))
	at := wire.HeaderSize + 4
	for range count {
		at += 4 + int(binary.LittleEndian.Uint32(b[at:]))
	}
	mut(b, at+4, count)
	return b
}

func goodSample(i int) metrics.Sample {
	return metrics.Sample{
		Metric: "response_time",
		Scope:  metrics.Scope{Service: "svc", Version: "v1", Variant: "baseline"},
		Value:  float64(20 + i),
	}
}

func goodSpan(i int) tracing.Span {
	return tracing.Span{
		TraceID: tracing.TraceID(i + 1), SpanID: tracing.SpanID(i + 1),
		Service: "svc", Version: "v1", Endpoint: "GET /",
		Duration: 12 * time.Millisecond,
	}
}

func TestBinaryIngestHappyPath(t *testing.T) {
	e, collector := newBinaryEnv(t, 1<<20)

	code, body := e.postBinary("/v1/metrics", binMetricsFrame(goodSample(0), goodSample(1)))
	if code != http.StatusAccepted || !strings.Contains(body, `"accepted": 2`) {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if e.store.SeriesCount() == 0 {
		t.Fatal("store recorded no series")
	}

	code, body = e.postBinary("/v1/spans", binSpansFrame(goodSpan(0), goodSpan(1), goodSpan(2)))
	if code != http.StatusAccepted || !strings.Contains(body, `"accepted": 3`) {
		t.Fatalf("spans: %d %s", code, body)
	}
	if n := collector.SpanCount(); n != 3 {
		t.Fatalf("collector has %d spans, want 3", n)
	}
}

// TestBinaryIngestErrorPaths drives every malformed-frame class through
// both endpoints: each must 4xx without panicking and without recording
// anything (no partial ingestion).
func TestBinaryIngestErrorPaths(t *testing.T) {
	goodM := binMetricsFrame(goodSample(0))
	goodS := binSpansFrame(goodSpan(0))
	wrongVersion := append([]byte(nil), goodM...)
	wrongVersion[2] = 9
	versionOne := append([]byte(nil), goodM...)
	versionOne[2] = 1
	// Hostile column bytes, at one-byte indexes unless said otherwise.
	// Two rows stamped apart carry a per-row at column (tag 1) after
	// 2·(4+8) bytes of indexes and values.
	stampedApart := []metrics.Sample{goodSample(0), goodSample(1)}
	stampedApart[0].At = time.Now()
	stampedApart[1].At = stampedApart[0].At.Add(time.Second)
	tagTwo := hostileMetricsFrame(func(b []byte, cols, _ int) { b[cols+2*(4+8)] = 2 }, stampedApart...)
	tagZeroLong := hostileMetricsFrame(func(b []byte, cols, _ int) { b[cols+2*(4+8)] = 0 }, stampedApart...)
	indexW1 := hostileMetricsFrame(func(b []byte, cols, count int) { b[cols] = byte(count) }, goodSample(0))
	// 65 rows of four distinct strings: 260 strings, two-byte indexes.
	wide := make([]metrics.Sample, 65)
	for i := range wide {
		wide[i] = metrics.Sample{Metric: fmt.Sprintf("m%d", i), Value: 1,
			Scope: metrics.Scope{Service: fmt.Sprintf("s%d", i), Version: fmt.Sprintf("v%d", i), Variant: fmt.Sprintf("r%d", i)}}
	}
	indexW2 := hostileMetricsFrame(func(b []byte, cols, count int) {
		binary.LittleEndian.PutUint16(b[cols:], uint16(count))
	}, wide...)
	truncated := goodM[:len(goodM)-5]
	badDict := append([]byte(nil), goodM...)
	binary.LittleEndian.PutUint32(badDict[wire.HeaderSize:], 0xFFFFFFF0)

	// A 256 KiB frame against a 4 KiB body cap.
	big := make([]metrics.Sample, 0, 4096)
	for i := 0; i < 4096; i++ {
		s := goodSample(i)
		s.Metric = fmt.Sprintf("metric-%d", i)
		big = append(big, s)
	}
	oversized := binMetricsFrame(big...)

	partialM := binMetricsFrame(goodSample(0),
		metrics.Sample{Metric: "", Scope: metrics.Scope{Service: "svc", Version: "v1"}})
	partialS := binSpansFrame(goodSpan(0),
		tracing.Span{TraceID: 0, SpanID: 9, Service: "svc", Version: "v1", Endpoint: "GET /"})

	tests := []struct {
		name     string
		path     string
		frame    []byte
		wantCode int
		wantSub  string
	}{
		{"oversized batch", "/v1/metrics", oversized, http.StatusRequestEntityTooLarge, "larger than"},
		{"truncated frame", "/v1/metrics", truncated, http.StatusBadRequest, "length"},
		{"wrong version header", "/v1/metrics", wrongVersion, http.StatusBadRequest, "version"},
		{"version 1 frame", "/v1/metrics", versionOne, http.StatusBadRequest, "unsupported version 1"},
		{"at column tag 2", "/v1/metrics", tagTwo, http.StatusBadRequest, "tag 2"},
		{"tag 0 carrying 8n time bytes", "/v1/metrics", tagZeroLong, http.StatusBadRequest, "time bytes"},
		{"index equal to dictionary count, width 1", "/v1/metrics", indexW1, http.StatusBadRequest, "out of dictionary range"},
		{"index equal to dictionary count, width 2", "/v1/metrics", indexW2, http.StatusBadRequest, "out of dictionary range"},
		{"kind cross-posted to metrics", "/v1/metrics", goodS, http.StatusBadRequest, "kind"},
		{"kind cross-posted to spans", "/v1/spans", goodM, http.StatusBadRequest, "kind"},
		{"garbage bytes", "/v1/spans", []byte("not a frame at all"), http.StatusBadRequest, "magic"},
		{"hostile dictionary count", "/v1/metrics", badDict, http.StatusBadRequest, "dictionary"},
		{"empty metrics frame", "/v1/metrics", binMetricsFrame(), http.StatusBadRequest, "no observations"},
		{"empty spans frame", "/v1/spans", binSpansFrame(), http.StatusBadRequest, "no spans"},
		{"invalid sample rejects whole batch", "/v1/metrics", partialM, http.StatusBadRequest, "required"},
		{"invalid span rejects whole batch", "/v1/spans", partialS, http.StatusBadRequest, "required"},
	}
	// The frame carries raw IEEE bits: a value no check can reason about
	// rejects the batch wherever it sits.
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		for _, row := range []int{0, 3, 6} {
			batch := make([]metrics.Sample, 7)
			for i := range batch {
				batch[i] = goodSample(i)
			}
			batch[row].Value = v
			tests = append(tests, struct {
				name     string
				path     string
				frame    []byte
				wantCode int
				wantSub  string
			}{fmt.Sprintf("%s at row %d of 7", name, row), "/v1/metrics", binMetricsFrame(batch...),
				http.StatusBadRequest, fmt.Sprintf("observation %d: value must be finite", row)})
		}
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, collector := newBinaryEnv(t, 4096)
			code, body := e.postBinary(tt.path, tt.frame)
			if code != tt.wantCode {
				t.Fatalf("status = %d (%s), want %d", code, body, tt.wantCode)
			}
			if !strings.Contains(body, tt.wantSub) {
				t.Fatalf("body %q does not mention %q", body, tt.wantSub)
			}
			if n := e.store.SeriesCount(); n != 0 {
				t.Fatalf("store recorded %d series from a rejected batch", n)
			}
			if n := collector.SpanCount(); n != 0 {
				t.Fatalf("collector recorded %d spans from a rejected batch", n)
			}
		})
	}
}

// TestMixedJSONAndBinaryOneConnection interleaves JSON and binary
// batches over one keep-alive client: content negotiation is per
// request, and a malformed binary frame between two JSON batches must
// not poison the connection or the JSON path.
func TestMixedJSONAndBinaryOneConnection(t *testing.T) {
	e, collector := newBinaryEnv(t, 1<<20)

	jsonBody := `{"observations":[{"metric":"response_time","service":"svc","version":"v1","value":21}]}`
	if code, body := e.do("POST", "/v1/metrics", jsonBody); code != http.StatusAccepted {
		t.Fatalf("json metrics: %d %s", code, body)
	}
	if code, body := e.postBinary("/v1/metrics", binMetricsFrame(goodSample(1))); code != http.StatusAccepted {
		t.Fatalf("binary metrics: %d %s", code, body)
	}
	if code, _ := e.postBinary("/v1/metrics", []byte("garbage")); code != http.StatusBadRequest {
		t.Fatal("garbage frame must 400")
	}
	if code, body := e.do("POST", "/v1/metrics", jsonBody); code != http.StatusAccepted {
		t.Fatalf("json after bad binary: %d %s", code, body)
	}

	jsonSpans := `{"spans":[{"traceId":50,"spanId":51,"service":"svc","version":"v1","endpoint":"GET /","durationMs":3}]}`
	if code, body := e.do("POST", "/v1/spans", jsonSpans); code != http.StatusAccepted {
		t.Fatalf("json spans: %d %s", code, body)
	}
	if code, body := e.postBinary("/v1/spans", binSpansFrame(goodSpan(7))); code != http.StatusAccepted {
		t.Fatalf("binary spans: %d %s", code, body)
	}
	if n := collector.SpanCount(); n != 2 {
		t.Fatalf("collector has %d spans, want 2", n)
	}
}

// TestBinaryMediaTypeIsCaseInsensitive: RFC 9110 §8.3.1 makes the media
// type and subtype case-insensitive and allows parameters after them,
// so every spelling of application/x-contexp-batch takes the binary
// decoder on both telemetry endpoints; a different type that merely
// starts the same way takes the JSON one (and fails to parse there).
func TestBinaryMediaTypeIsCaseInsensitive(t *testing.T) {
	e, _ := newBinaryEnv(t, 1<<20)
	frames := map[string][]byte{
		"/v1/metrics": binMetricsFrame(goodSample(0)),
		"/v1/spans":   binSpansFrame(goodSpan(0)),
	}
	for _, tc := range []struct {
		contentType string
		want        int
	}{
		{wire.ContentType, http.StatusAccepted},
		{"Application/X-Contexp-Batch", http.StatusAccepted},
		{"APPLICATION/X-CONTEXP-BATCH", http.StatusAccepted},
		{"application/X-contexp-batch;v=1", http.StatusAccepted},
		{"Application/x-contexp-batch ; v=1", http.StatusAccepted},
		{"application/x-contexp-batches", http.StatusBadRequest},
		{"application/json", http.StatusBadRequest},
	} {
		for path, frame := range frames {
			resp, err := e.ts.Client().Post(e.ts.URL+path, tc.contentType, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s with Content-Type %q: %d, want %d", path, tc.contentType, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestAcceptedBodyMatchesJSONEncoder holds the hand-written 202 body of
// the metrics ingest tail to what writeJSON renders for the same value.
func TestAcceptedBodyMatchesJSONEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 256, 1 << 22} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeAccepted(got, n)
		writeJSON(want, http.StatusAccepted, map[string]int{"accepted": n})
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("n=%d: %d %q %q, want %d %q %q", n,
				got.Code, got.Header().Get("Content-Type"), got.Body.String(),
				want.Code, want.Header().Get("Content-Type"), want.Body.String())
		}
	}
}

// BenchmarkIngestHTTP measures the full HTTP ingestion path for a
// 256-observation batch: JSON and binary posts, one request each, and
// binary frames on a wire.Client's stream, a frame and its ack each —
// the end-to-end number behind the codec's per-sample wins.
func BenchmarkIngestHTTP(b *testing.B) {
	newBench := func(b *testing.B) *httptest.Server {
		table := router.NewTable()
		store := metrics.NewStore(0)
		engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(Config{Engine: engine, Table: table, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		return ts
	}

	samples := make([]metrics.Sample, 256)
	obs := make([]Observation, 256)
	for i := range samples {
		samples[i] = goodSample(i % 16)
		samples[i].Metric = fmt.Sprintf("metric-%d", i%4)
		obs[i] = Observation{
			Metric: samples[i].Metric, Service: "svc", Version: "v1",
			Variant: "baseline", Value: samples[i].Value,
		}
	}
	jsonBody, err := json.Marshal(map[string][]Observation{"observations": obs})
	if err != nil {
		b.Fatal(err)
	}
	frame := binMetricsFrame(samples...)

	post := func(b *testing.B, ts *httptest.Server, contentType string, body []byte) {
		b.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/metrics", contentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("status %d: %s", resp.StatusCode, sink.String())
		}
	}

	b.Run("json", func(b *testing.B) {
		ts := newBench(b)
		post(b, ts, "application/json", jsonBody) // warm the connection
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts, "application/json", jsonBody)
		}
	})
	b.Run("binary", func(b *testing.B) {
		ts := newBench(b)
		post(b, ts, wire.ContentType, frame)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts, wire.ContentType, frame)
		}
	})
	b.Run("stream", func(b *testing.B) {
		ts := newBench(b)
		c := wire.NewClient(ts.URL, ts.Client(), len(samples)+1)
		b.Cleanup(func() { _ = c.Close() })
		flush := func() {
			c.RecordBatch(samples)
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		flush() // open the stream
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flush()
		}
	})
}
