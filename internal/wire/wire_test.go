package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/tracing"
)

func sampleBatch() []metrics.Sample {
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	return []metrics.Sample{
		{Metric: "latency_ms", Scope: metrics.Scope{Service: "catalog", Version: "v1", Variant: "baseline"}, Value: 12.5, At: at},
		{Metric: "latency_ms", Scope: metrics.Scope{Service: "catalog", Version: "v2", Variant: "canary"}, Value: 14.25, At: at.Add(time.Second)},
		{Metric: "error", Scope: metrics.Scope{Service: "catalog", Version: "v2", Variant: "canary"}, Value: 1},
		{Metric: "requests", Scope: metrics.Scope{Service: "frontend", Version: "v1"}, Value: 3, At: at.Add(2 * time.Second)},
	}
}

func spanBatch() []tracing.Span {
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	return []tracing.Span{
		{TraceID: 7, SpanID: 1, Service: "frontend", Version: "v1", Endpoint: "GET /",
			Start: at, Duration: 12 * time.Millisecond},
		{TraceID: 7, SpanID: 2, ParentID: 1, Service: "catalog", Version: "v2", Endpoint: "GET /products",
			Start: at.Add(time.Millisecond), Duration: 9 * time.Millisecond, Err: true},
		{TraceID: 8, SpanID: 3, Service: "frontend", Version: "v1", Endpoint: "GET /",
			Duration: 5 * time.Millisecond},
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	in := sampleBatch()
	var e MetricsEncoder
	var d MetricsDecoder
	frame := e.Encode(in)
	if Kind(frame) != KindMetrics {
		t.Fatalf("Kind = %d", Kind(frame))
	}
	out, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		// Compare on UTC: the codec carries UnixNano, not location.
		if !out[i].At.Equal(in[i].At) {
			t.Fatalf("sample %d At = %v, want %v", i, out[i].At, in[i].At)
		}
		got, want := out[i], in[i]
		got.At, want.At = time.Time{}, time.Time{}
		if got != want {
			t.Fatalf("sample %d = %+v, want %+v", i, got, want)
		}
	}
	// Re-encoding the decoded batch yields an identical frame.
	var e2 MetricsEncoder
	if !reflect.DeepEqual(e2.Encode(out), frame) {
		t.Fatal("re-encoded frame differs")
	}
}

func TestSpansRoundTrip(t *testing.T) {
	in := spanBatch()
	var e SpansEncoder
	var d SpansDecoder
	frame := e.Encode(in)
	if Kind(frame) != KindSpans {
		t.Fatalf("Kind = %d", Kind(frame))
	}
	out, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if !out[i].Start.Equal(in[i].Start) {
			t.Fatalf("span %d Start = %v, want %v", i, out[i].Start, in[i].Start)
		}
		got, want := out[i], in[i]
		got.Start, want.Start = time.Time{}, time.Time{}
		if got != want {
			t.Fatalf("span %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestEmptyBatchesRoundTrip(t *testing.T) {
	var me MetricsEncoder
	var md MetricsDecoder
	out, err := md.Decode(me.Encode(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty metrics: %v, %d samples", err, len(out))
	}
	var se SpansEncoder
	var sd SpansDecoder
	spans, err := sd.Decode(se.Encode(nil))
	if err != nil || len(spans) != 0 {
		t.Fatalf("empty spans: %v, %d spans", err, len(spans))
	}
}

func TestDecoderReuseAcrossFrames(t *testing.T) {
	var e MetricsEncoder
	var d MetricsDecoder
	for round := 0; round < 3; round++ {
		out, err := d.Decode(e.Encode(sampleBatch()))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 4 || out[0].Metric != "latency_ms" {
			t.Fatalf("round %d: %+v", round, out)
		}
	}
}

// TestDecoderInternTableIsBounded: an emitter whose label values never
// repeat (10⁴ frames, every string unique) must not grow a decoder —
// pooled, so immortal — past maxInterned, and what it decodes must
// still be right while the table turns over. All four decoders intern
// through dec.readDict; the two telemetry ones stand for it here.
func TestDecoderInternTableIsBounded(t *testing.T) {
	var me MetricsEncoder
	var md MetricsDecoder
	var se SpansEncoder
	var sd SpansDecoder
	for i := 0; i < 10_000; i++ {
		sample := metrics.Sample{Metric: fmt.Sprintf("m-%d", i), Value: float64(i),
			Scope: metrics.Scope{Service: fmt.Sprintf("svc-%d", i), Version: fmt.Sprintf("v%d", i), Variant: fmt.Sprintf("req-%d", i)}}
		samples, err := md.Decode(me.Encode([]metrics.Sample{sample, sample}))
		if err != nil || len(samples) != 2 || samples[0] != sample || samples[1] != sample {
			t.Fatalf("frame %d: decoded %+v, %v; want two of %+v", i, samples, err, sample)
		}
		span := tracing.Span{TraceID: 1, SpanID: tracing.SpanID(i + 1),
			Service: fmt.Sprintf("svc-%d", i), Version: fmt.Sprintf("v%d", i), Endpoint: fmt.Sprintf("GET /orders/%d", i)}
		spans, err := sd.Decode(se.Encode([]tracing.Span{span}))
		if err != nil || len(spans) != 1 || spans[0] != span {
			t.Fatalf("frame %d: decoded %+v, %v; want %+v", i, spans, err, span)
		}
	}
	if n := len(md.d.intern); n > maxInterned {
		t.Errorf("metrics decoder interned %d strings after 40 000 unique ones, bound is %d", n, maxInterned)
	}
	if n := len(sd.d.intern); n > maxInterned {
		t.Errorf("spans decoder interned %d strings after 30 000 unique ones, bound is %d", n, maxInterned)
	}
}

func TestDecodeErrors(t *testing.T) {
	var e MetricsEncoder
	good := append([]byte(nil), e.Encode(sampleBatch())...)
	var se SpansEncoder
	goodSpans := append([]byte(nil), se.Encode(spanBatch())...)

	corrupt := func(mut func([]byte) []byte) []byte {
		return mut(append([]byte(nil), good...))
	}
	tests := []struct {
		name    string
		frame   []byte
		wantSub string
	}{
		{"empty", nil, "header"},
		{"short header", []byte{'C', 'X', 1}, "header"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'Z'; return b }), "magic"},
		{"wrong version", corrupt(func(b []byte) []byte { b[2] = 9; return b }), "version"},
		{"wrong kind", goodSpans, "kind"},
		{"truncated body", corrupt(func(b []byte) []byte { return b[:len(b)-3] }), "length"},
		{"trailing garbage", corrupt(func(b []byte) []byte { return append(b, 0xFF) }), "length"},
		{"oversized dict count", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[HeaderSize:], 0xFFFFFFFF)
			return b
		}), "dictionary"},
	}
	var d MetricsDecoder
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := d.Decode(tt.frame); err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("Decode = %v, want error containing %q", err, tt.wantSub)
			}
		})
	}

	// Row-count corruption: rewrite the count in place (it directly
	// follows the dictionary) and verify the width check trips.
	var d2 dec
	d2.body = good[HeaderSize:]
	if err := d2.readDict(); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(good[HeaderSize+d2.off:], 3) // actual batch has 4
	if _, err := d.Decode(good); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("row-count corruption: %v", err)
	}

	// String index out of range.
	frame2 := append([]byte(nil), e.Encode(sampleBatch())...)
	var d3 dec
	d3.body = frame2[HeaderSize:]
	if err := d3.readDict(); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(frame2[HeaderSize+d3.off+4:], 0xFFFF) // first metric index
	if _, err := d.Decode(frame2); err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("bad string index: %v", err)
	}
}

func TestClientBuffersAndFlushes(t *testing.T) {
	// Exercised end to end in internal/server's ingestion tests; here
	// just verify batching thresholds trigger flushes through a stub.
	posts := 0
	srv := newStubServer(t, func() { posts++ })
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client(), 2)
	c.RecordMetric(sampleBatch()[0])
	if posts != 0 {
		t.Fatal("flushed before batch filled")
	}
	c.RecordMetric(sampleBatch()[1])
	if posts != 1 {
		t.Fatalf("posts = %d after batch filled", posts)
	}
	c.RecordSpan(spanBatch()[0])
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if posts != 2 {
		t.Fatalf("posts = %d after explicit flush", posts)
	}
	if c.Errors() != 0 {
		t.Fatalf("errors = %d", c.Errors())
	}
}

// TestClientCloseFlushesTail is the regression test for short-lived
// emitters: telemetry still below the batch threshold must ship on
// Close, not silently drop with the process.
func TestClientCloseFlushesTail(t *testing.T) {
	posts := 0
	srv := newStubServer(t, func() { posts++ })
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client(), 100) // threshold never reached
	c.RecordMetric(sampleBatch()[0])
	c.RecordSpan(spanBatch()[0])
	if posts != 0 {
		t.Fatal("flushed before Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if posts != 2 { // one metrics frame + one spans frame
		t.Fatalf("posts = %d after Close, want 2", posts)
	}
	// Close with nothing buffered is a no-op, and a closed client still
	// accepts and ships later telemetry.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if posts != 2 {
		t.Fatalf("posts = %d after empty Close", posts)
	}
	c.RecordMetric(sampleBatch()[1])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if posts != 3 {
		t.Fatalf("posts = %d after reuse, want 3", posts)
	}
}
