package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

// benchSamples mimics a loadgen flush: a few hundred samples over a
// small set of series.
func benchSamples(n int) []metrics.Sample {
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	out := make([]metrics.Sample, n)
	for i := range out {
		out[i] = metrics.Sample{
			Metric: []string{"latency_ms", "error", "requests"}[i%3],
			Scope: metrics.Scope{
				Service: fmt.Sprintf("svc-%d", i%8),
				Version: []string{"v1", "v2"}[i%2],
				Variant: []string{"baseline", "canary"}[i%2],
			},
			Value: float64(i),
			At:    at.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func benchSpans(n int) []tracing.Span {
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	out := make([]tracing.Span, n)
	for i := range out {
		out[i] = tracing.Span{
			TraceID: tracing.TraceID(i/4 + 1), SpanID: tracing.SpanID(i + 1),
			Service:  fmt.Sprintf("svc-%d", i%8),
			Version:  []string{"v1", "v2"}[i%2],
			Endpoint: []string{"GET /", "GET /products", "POST /cart"}[i%3],
			Start:    at.Add(time.Duration(i) * time.Millisecond),
			Duration: time.Duration(i%20) * time.Millisecond,
			Err:      i%13 == 0,
		}
		if i%4 != 0 {
			out[i].ParentID = out[i-1].SpanID
		}
	}
	return out
}

// BenchmarkWireDecodeMetrics is the gated zero-alloc decode path: after
// the intern table warms, decoding a 256-sample frame must not allocate.
func BenchmarkWireDecodeMetrics(b *testing.B) {
	var e MetricsEncoder
	var d MetricsDecoder
	frame := append([]byte(nil), e.Encode(benchSamples(256))...)
	if _, err := d.Decode(frame); err != nil { // warm the scratch slices
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Decode(frame)
		if err != nil || len(out) != 256 {
			b.Fatalf("decode: %v, %d samples", err, len(out))
		}
	}
}

// BenchmarkWireDecodeMetricsDistinct decodes the frame a fleet sends
// (distinctSamples: 256 distinct series, At unset, so the at column is
// one stamp), gated at zero allocations like BenchmarkWireDecodeMetrics.
func BenchmarkWireDecodeMetricsDistinct(b *testing.B) {
	var e MetricsEncoder
	var d MetricsDecoder
	frame := append([]byte(nil), e.Encode(distinctSamples())...)
	if _, err := d.Decode(frame); err != nil { // warm the scratch slices
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Decode(frame)
		if err != nil || len(out) != 256 {
			b.Fatalf("decode: %v, %d samples", err, len(out))
		}
	}
}

// BenchmarkWireDecodeSpans is the span twin of the gated decode bench.
func BenchmarkWireDecodeSpans(b *testing.B) {
	var e SpansEncoder
	var d SpansDecoder
	frame := append([]byte(nil), e.Encode(benchSpans(256))...)
	if _, err := d.Decode(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Decode(frame)
		if err != nil || len(out) != 256 {
			b.Fatalf("decode: %v, %d spans", err, len(out))
		}
	}
}

// BenchmarkWireEncodeMetrics tracks the sender-side cost (the encoder
// reuses its buffers, so steady state stays allocation-flat too).
func BenchmarkWireEncodeMetrics(b *testing.B) {
	var e MetricsEncoder
	samples := benchSamples(256)
	e.Encode(samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame := e.Encode(samples); len(frame) < HeaderSize {
			b.Fatal("short frame")
		}
	}
}

// BenchmarkWireEncodeMetricsDistinct encodes the batch a fleet sends:
// 256 distinct series in shuffled order (distinctSamples), where
// neighbouring rows rarely share a column value — the per-cell
// dictionary cost that BenchmarkWireEncodeMetrics' three-metric,
// eight-service cycle understates.
func BenchmarkWireEncodeMetricsDistinct(b *testing.B) {
	var e MetricsEncoder
	samples := distinctSamples()
	e.Encode(samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame := e.Encode(samples); len(frame) < HeaderSize {
			b.Fatal("short frame")
		}
	}
}

// BenchmarkWireEncodeMetricsFresh encodes the batch of an emitter whose
// strings are built per sample, as a resolve handler's service name
// read from a query string would be: every service cell is a string the
// encoder has never seen, so it misses the identity cache. The metric
// and version cells are constants, as an agent's are. Each iteration
// encodes the next of freshBatches batches, whose strings are copies of
// their own, so no batch's pointers are still cached when it comes
// round again. "sorted" flushes runs of one service; "shuffled" mixes
// them.
func BenchmarkWireEncodeMetricsFresh(b *testing.B) {
	const freshBatches = 64
	for _, order := range []string{"sorted", "shuffled"} {
		b.Run(order, func(b *testing.B) {
			rng := rand.New(rand.NewSource(23))
			at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
			batches := make([][]metrics.Sample, freshBatches)
			for k := range batches {
				batch := make([]metrics.Sample, 256)
				for i := range batch {
					batch[i] = metrics.Sample{
						Metric: "edge_resolves",
						Scope: metrics.Scope{
							Service: fmt.Sprintf("svc-%02d", i*8/len(batch)), // a fresh copy each
							Version: []string{"v1", "v2"}[i%2],
						},
						Value: 1,
						At:    at.Add(time.Duration(i) * time.Microsecond),
					}
				}
				if order == "shuffled" {
					rng.Shuffle(len(batch), func(i, j int) {
						batch[i].Scope, batch[j].Scope = batch[j].Scope, batch[i].Scope
					})
				}
				batches[k] = batch
			}
			var e MetricsEncoder
			for _, batch := range batches {
				e.Encode(batch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if frame := e.Encode(batches[i%freshBatches]); len(frame) < HeaderSize {
					b.Fatal("short frame")
				}
			}
		})
	}
}

// benchTableSnapshot is a fleet-scale routing snapshot: 64 services
// with rules, splits, and mirrors — the full-sync frame a reconnecting
// agent pays for.
func benchTableSnapshot() router.TableSnapshot {
	tbl := router.NewTable()
	for i := 0; i < 64; i++ {
		route := router.Route{
			Service: fmt.Sprintf("svc-%02d", i),
			Rules: []router.Rule{
				{Name: "beta", Match: router.GroupMatcher{Group: "beta"}, Version: "v2"},
			},
			Backends:   []router.Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}},
			Mirrors:    []string{"v3"},
			StickySalt: "exp",
		}
		if err := tbl.Set(route); err != nil {
			panic(err)
		}
	}
	return tbl.Export()
}

// BenchmarkSnapshotEncode tracks the control-plane cost of publishing a
// full routing snapshot to the watch stream.
func BenchmarkSnapshotEncode(b *testing.B) {
	var e SnapshotEncoder
	snap := benchTableSnapshot()
	if _, err := e.Encode(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := e.Encode(snap)
		if err != nil || len(frame) < HeaderSize {
			b.Fatalf("encode: %v", err)
		}
	}
}

// BenchmarkSnapshotDecode tracks the agent-side cost of a full sync.
// Routes and their strings allocate: they outlive the decoder inside the
// table, and the decoder keeps none of them.
func BenchmarkSnapshotDecode(b *testing.B) {
	var e SnapshotEncoder
	var d SnapshotDecoder
	frame, err := e.Encode(benchTableSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	frame = append([]byte(nil), frame...)
	if _, err := d.Decode(frame); err != nil { // warm the scratch slices
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := d.Decode(frame)
		if err != nil || len(snap.Routes) != 64 {
			b.Fatalf("decode: %v, %d routes", err, len(snap.Routes))
		}
	}
}

// BenchmarkDeltaDecode tracks the steady-state watch path: one service
// shifting its split, the frame every phase transition fans out to the
// whole fleet.
func BenchmarkDeltaDecode(b *testing.B) {
	snap := benchTableSnapshot()
	delta := router.TableDelta{
		FromVersion: snap.Version,
		ToVersion:   snap.Version + 1,
		Upserts:     []router.Route{snap.Routes[0]},
	}
	var e DeltaEncoder
	var d DeltaDecoder
	frame, err := e.Encode(delta)
	if err != nil {
		b.Fatal(err)
	}
	frame = append([]byte(nil), frame...)
	if _, err := d.Decode(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.Decode(frame)
		if err != nil || len(got.Upserts) != 1 {
			b.Fatalf("decode: %v", err)
		}
	}
}
