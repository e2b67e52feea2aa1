package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// dictSamples is a batch whose frame's dictionary holds exactly k
// strings: k-3 metric names over one service, one version and the empty
// variant, every stamp unset.
func dictSamples(k int) []metrics.Sample {
	out := make([]metrics.Sample, k-3)
	for i := range out {
		out[i] = metrics.Sample{Metric: fmt.Sprintf("m%d", i), Scope: metrics.Scope{Service: "svc", Version: "v1"}, Value: float64(i)}
	}
	return out
}

// dictSpans is the span twin of dictSamples: k-2 endpoints over one
// service and one version.
func dictSpans(k int) []tracing.Span {
	out := make([]tracing.Span, k-2)
	for i := range out {
		out[i] = tracing.Span{TraceID: 1, SpanID: tracing.SpanID(i + 1), Service: "svc", Version: "v1",
			Endpoint: fmt.Sprintf("GET /%d", i), Duration: time.Duration(i), Err: i%3 == 0}
	}
	return out
}

// stamped is samples with every At set to at.
func stamped(samples []metrics.Sample, at time.Time) []metrics.Sample {
	for i := range samples {
		samples[i].At = at
	}
	return samples
}

// columnsAt is the frame offset of a telemetry frame's first column,
// past its dictionary and row count, and the dictionary's count.
func columnsAt(t *testing.T, frame []byte) (at, dictCount int) {
	t.Helper()
	var d dec
	d.body = frame[HeaderSize:]
	if err := d.readDict(KindMetrics); err != nil {
		t.Fatal(err)
	}
	return HeaderSize + d.off + 4, len(d.strs)
}

func TestMetricsRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		in    []metrics.Sample
		width int  // bytes per string index
		tag   byte // of the at column
	}{
		{"tag 1, unset and stamped rows mixed", sampleBatch(), 1, atPerRow},
		{"tag 1, stamped per row", benchSamples(256), 1, atPerRow},
		{"tag 0, every stamp unset", distinctSamples(), 1, atOnce},
		{"tag 0, one pre-1970 instant", stamped(sampleBatch(), time.Date(1969, 7, 20, 20, 17, 40, 5, time.UTC)), 1, atOnce},
		{"256 strings", dictSamples(256), 1, atOnce},
		{"257 strings", stamped(dictSamples(257), time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)), 2, atOnce},
		{"65536 strings", dictSamples(65536), 2, atOnce},
		{"65537 strings", dictSamples(65537), 4, atOnce},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var e MetricsEncoder
			var d MetricsDecoder
			frame := e.Encode(tt.in)
			if Kind(frame) != KindMetrics {
				t.Fatalf("Kind = %d", Kind(frame))
			}
			n := len(tt.in)
			at, count := columnsAt(t, frame)
			if w := indexWidth(count); w != tt.width {
				t.Fatalf("%d strings give index width %d, want %d", count, w, tt.width)
			}
			tagAt := at + n*(4*tt.width+8)
			timeBytes := 8
			if tt.tag == atPerRow {
				timeBytes = 8 * n
			}
			if tagAt >= len(frame) || frame[tagAt] != tt.tag || len(frame) != tagAt+1+timeBytes {
				t.Fatalf("frame of %d bytes: want at-column tag %d at offset %d and %d time bytes after it", len(frame), tt.tag, tagAt, timeBytes)
			}
			out, err := d.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("decoded %d samples, want %d", len(out), n)
			}
			for i := range tt.in {
				// Compare on UTC: the codec carries UnixNano, not location.
				if !out[i].At.Equal(tt.in[i].At) {
					t.Fatalf("sample %d At = %v, want %v", i, out[i].At, tt.in[i].At)
				}
				got, want := out[i], tt.in[i]
				got.At, want.At = time.Time{}, time.Time{}
				if got != want {
					t.Fatalf("sample %d = %+v, want %+v", i, got, want)
				}
			}
			// Re-encoding the decoded batch yields an identical frame.
			var e2 MetricsEncoder
			if !bytes.Equal(e2.Encode(out), frame) {
				t.Fatal("re-encoded frame differs")
			}
			// A warm decoder allocates nothing, while its intern table
			// holds the frame's strings.
			if count <= maxInterned {
				if a := testing.AllocsPerRun(5, func() { _, _ = d.Decode(frame) }); a != 0 {
					t.Fatalf("warm decode allocates %.0f times", a)
				}
			}
		})
	}
}

func TestSpansRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		in    []tracing.Span
		width int // bytes per string index
	}{
		{"three spans", spanBatch(), 1},
		{"256 strings", dictSpans(256), 1},
		{"257 strings", dictSpans(257), 2},
		{"65536 strings", dictSpans(65536), 2},
		{"65537 strings", dictSpans(65537), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var e SpansEncoder
			var d SpansDecoder
			frame := e.Encode(tt.in)
			if Kind(frame) != KindSpans {
				t.Fatalf("Kind = %d", Kind(frame))
			}
			n := len(tt.in)
			at, count := columnsAt(t, frame)
			if w := indexWidth(count); w != tt.width {
				t.Fatalf("%d strings give index width %d, want %d", count, w, tt.width)
			}
			if want := at + n*spanRowWidth(tt.width) + (n+7)/8; len(frame) != want {
				t.Fatalf("frame of %d bytes, want %d", len(frame), want)
			}
			out, err := d.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("decoded %d spans, want %d", len(out), n)
			}
			for i := range tt.in {
				if !out[i].Start.Equal(tt.in[i].Start) {
					t.Fatalf("span %d Start = %v, want %v", i, out[i].Start, tt.in[i].Start)
				}
				got, want := out[i], tt.in[i]
				got.Start, want.Start = time.Time{}, time.Time{}
				if got != want {
					t.Fatalf("span %d = %+v, want %+v", i, got, want)
				}
			}
			var e2 SpansEncoder
			if !bytes.Equal(e2.Encode(out), frame) {
				t.Fatal("re-encoded frame differs")
			}
			if count <= maxInterned {
				if a := testing.AllocsPerRun(5, func() { _, _ = d.Decode(frame) }); a != 0 {
					t.Fatalf("warm decode allocates %.0f times", a)
				}
			}
		})
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
// still be right while the table turns over. Only the two telemetry
// decoders intern; the routing ones hold no table at all
// (TestRoutingDecodersHoldNoRunNames).
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

// TestEncoderStringTable: a telemetry encoder finds a cell's dictionary
// index by the string's identity (data pointer and length) first, and
// its frames must still depend on string values alone. Each batch is
// encoded by one long-lived encoder and by a fresh one: the frames must
// be byte-equal, hold each value once in their dictionary, and decode
// back to the batch. The batches cover equal bytes behind distinct
// pointers, prefixes sharing a pointer with a longer string, the empty
// string from several sources, more distinct strings than maxInterned
// (the table is dropped), and a frame generation that wraps.
func TestEncoderStringTable(t *testing.T) {
	var reused MetricsEncoder
	var reusedSpans SpansEncoder
	check := func(name string, batch []metrics.Sample) {
		t.Helper()
		want := append([]byte(nil), new(MetricsEncoder).Encode(batch)...)
		got := reused.Encode(batch)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the reused encoder's frame differs from a fresh encoder's", name)
		}
		values := make(map[string]bool)
		for _, s := range batch {
			values[s.Metric], values[s.Scope.Service], values[s.Scope.Version], values[s.Scope.Variant] = true, true, true, true
		}
		if _, n := columnsAt(t, got); n != len(values) {
			t.Fatalf("%s: dictionary of %d strings, the batch has %d distinct values", name, n, len(values))
		}
		var d MetricsDecoder
		out, err := d.Decode(got)
		if err != nil || len(out) != len(batch) {
			t.Fatalf("%s: decoded %d samples, %v; want %d", name, len(out), err, len(batch))
		}
		for i := range out {
			if out[i] != batch[i] {
				t.Fatalf("%s: row %d decoded %+v, want %+v", name, i, out[i], batch[i])
			}
		}
	}
	row := func(metric, service, version, variant string) metrics.Sample {
		return metrics.Sample{Metric: metric, Scope: metrics.Scope{Service: service, Version: version, Variant: variant}, Value: 1}
	}

	base := strings.Clone("catalog-v2")
	check("equal bytes, distinct pointers", []metrics.Sample{
		row(strings.Clone("rt"), base, "v1", ""),
		row(strings.Clone("rt"), strings.Clone(base), strings.Clone("v1"), ""),
		row("rt", "catalog-v2", "v1", ""),
	})
	check("prefixes of one string", []metrics.Sample{
		row(base[:3], base, base[:7], base[:1]),
		row(base, base[:7], base[:3], base[:1]),
		row(base[:1], base[:3], base, base[:7]),
	})
	empty := []string{"", base[:0], base[3:3], strings.Clone(""), string([]byte{}), string(make([]byte, 0, 8))}
	var empties []metrics.Sample
	for i, e := range empty {
		empties = append(empties, row(e, empty[(i+1)%len(empty)], base[i:i+1], e))
	}
	check("the empty string from several sources", empties)
	run := make([]metrics.Sample, 64)
	for i := range run {
		run[i] = row("edge_resolves", strings.Clone(base), []string{"v1", "v2"}[i/16%2], "")
	}
	check("runs of one value, a fresh copy per row", run)

	// 6 × 4 000 distinct values pass maxInterned: the table, past it after
	// the fifth frame, is dropped as the sixth starts, and what it held is
	// met again after. Each frame opens with a fresh copy of the string
	// the frame before missed last, which the table must not answer from
	// before the drop.
	var first []metrics.Sample
	lastMiss := ""
	for f := 0; f < 6; f++ {
		batch := make([]metrics.Sample, 1000)
		for i := range batch {
			k := f*1000 + i
			batch[i] = row(fmt.Sprintf("m%d", k), fmt.Sprintf("s%d", k), fmt.Sprintf("v%d", k), fmt.Sprintf("r%d", k))
		}
		if f > 0 {
			batch[0].Metric = strings.Clone(lastMiss)
		}
		lastMiss = batch[len(batch)-1].Scope.Variant
		if f == 0 {
			first = batch
		}
		check(fmt.Sprintf("distinct frame %d", f), batch)
	}
	if n := len(reused.e.tab.seen); n > maxInterned {
		t.Fatalf("string table holds %d strings after 24 000 distinct ones, bound is %d", n, maxInterned)
	}
	check("distinct frame 0 again", first)
	reversed := slices.Clone(first)
	slices.Reverse(reversed)
	check("distinct frame 0, reversed", reversed)

	// The generation wraps: a string last placed in a frame of the
	// generation the counter wraps to must count as absent from the frame
	// after the wrap, not as placed where that old frame put it.
	ordered := []metrics.Sample{row("a", "b", "c", "d"), row("e", "f", "g", "h")}
	reused.e.tab.gen = 0
	check("generation 1", ordered)
	reused.e.tab.gen = math.MaxUint32 - 1
	check("the last generation", []metrics.Sample{row("w", "x", "y", "z")})
	check("the wrap", []metrics.Sample{ordered[1], ordered[0]})
	if reused.e.tab.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", reused.e.tab.gen)
	}

	// Spans resolve their cells the same way.
	spans := []tracing.Span{
		{TraceID: 1, SpanID: 1, Service: base, Version: base[:3], Endpoint: ""},
		{TraceID: 1, SpanID: 2, Service: strings.Clone(base), Version: "cat", Endpoint: base[:0]},
	}
	for range 2 {
		if got, want := reusedSpans.Encode(spans), new(SpansEncoder).Encode(spans); !bytes.Equal(got, want) {
			t.Fatal("spans: the reused encoder's frame differs from a fresh encoder's")
		}
	}
	var sd SpansDecoder
	if out, err := sd.Decode(reusedSpans.Encode(spans)); err != nil || out[0] != spans[0] || out[1] != spans[1] {
		t.Fatalf("spans decoded %+v, %v; want %+v", out, err, spans)
	}
}

// wideSamples is a batch of n rows whose four string columns are all
// distinct: 4n dictionary strings from few rows, so a frame past 256
// strings (two-byte indexes) stays small.
func wideSamples(n int) []metrics.Sample {
	out := make([]metrics.Sample, n)
	for i := range out {
		out[i] = metrics.Sample{Metric: fmt.Sprintf("m%d", i), Value: 1,
			Scope: metrics.Scope{Service: fmt.Sprintf("s%d", i), Version: fmt.Sprintf("v%d", i), Variant: fmt.Sprintf("r%d", i)}}
	}
	return out
}

func TestDecodeErrors(t *testing.T) {
	var e MetricsEncoder
	good := append([]byte(nil), e.Encode(sampleBatch())...) // at column tag 1
	once := append([]byte(nil), e.Encode(distinctSamples())...)
	wide := append([]byte(nil), e.Encode(wideSamples(65))...) // 260 strings
	var se SpansEncoder
	goodSpans := append([]byte(nil), se.Encode(spanBatch())...)

	// corrupt applies mut to a copy of frame, handing it the offset of
	// the first column and the dictionary's count.
	corrupt := func(frame []byte, mut func(b []byte, cols, count int) []byte) []byte {
		cols, count := columnsAt(t, frame)
		return mut(append([]byte(nil), frame...), cols, count)
	}
	// tagAt is the at column's tag offset in a 1-byte-index frame of n rows.
	tagAt := func(cols, n int) int { return cols + n*(4+8) }
	tests := []struct {
		name    string
		frame   []byte
		wantSub string
	}{
		{"empty", nil, "header"},
		{"short header", []byte{'C', 'X', Version}, "header"},
		{"bad magic", corrupt(good, func(b []byte, _, _ int) []byte { b[0] = 'Z'; return b }), "magic"},
		{"wrong version", corrupt(good, func(b []byte, _, _ int) []byte { b[2] = 9; return b }), "version"},
		{"version 1", corrupt(good, func(b []byte, _, _ int) []byte { b[2] = 1; return b }), "unsupported version 1"},
		{"wrong kind", goodSpans, "kind"},
		{"truncated body", corrupt(good, func(b []byte, _, _ int) []byte { return b[:len(b)-3] }), "length"},
		{"trailing garbage", corrupt(good, func(b []byte, _, _ int) []byte { return append(b, 0xFF) }), "length"},
		{"oversized dict count", corrupt(good, func(b []byte, _, _ int) []byte {
			binary.LittleEndian.PutUint32(b[HeaderSize:], 0xFFFFFFFF)
			return b
		}), "dictionary"},
		// The row count directly precedes the columns; the batch has 4.
		{"row count short by one", corrupt(good, func(b []byte, cols, _ int) []byte {
			binary.LittleEndian.PutUint32(b[cols-4:], 3)
			return b
		}), "rows"},
		{"at column tag 2", corrupt(good, func(b []byte, cols, _ int) []byte {
			b[tagAt(cols, 4)] = 2
			return b
		}), "tag 2"},
		{"tag 0 carrying 8n time bytes", corrupt(good, func(b []byte, cols, _ int) []byte {
			b[tagAt(cols, 4)] = atOnce
			return b
		}), "time bytes"},
		{"tag 1 carrying one stamp", corrupt(once, func(b []byte, cols, _ int) []byte {
			b[tagAt(cols, 256)] = atPerRow
			return b
		}), "time bytes"},
		{"index equal to dictionary count, width 1", corrupt(good, func(b []byte, cols, count int) []byte {
			b[cols] = byte(count)
			return b
		}), "index"},
		{"index equal to dictionary count, width 2", corrupt(wide, func(b []byte, cols, count int) []byte {
			binary.LittleEndian.PutUint16(b[cols+2*(4*65-1):], uint16(count)) // the last variant
			return b
		}), "index"},
	}
	var d MetricsDecoder
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := d.Decode(tt.frame); err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("Decode = %v, want error containing %q", err, tt.wantSub)
			}
		})
	}
}

func TestClientBuffersAndFlushes(t *testing.T) {
	// Exercised end to end in internal/server's ingestion tests; here
	// just verify batching thresholds trigger flushes through a stub.
	posts := 0
	srv := newStubServer(t, func() { posts++ })
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client(), 2)
	defer c.Close()
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
