package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"contexp/internal/metrics"
	"contexp/internal/tracing"
)

// distinctSamples is the shape a fleet (and benchmark/ingest_binary.go)
// sends: one sample for each of 256 distinct series — 4 metrics × 32
// services × 2 versions, empty variant, zero At — in a seeded shuffle,
// so no two neighbours share a series and few share a column value.
func distinctSamples() []metrics.Sample {
	var out []metrics.Sample
	for _, metric := range []string{"response_time", "requests", "errors", "queue_depth"} {
		for svc := 0; svc < 32; svc++ {
			for _, ver := range []string{"v1", "v2"} {
				out = append(out, metrics.Sample{
					Metric: metric,
					Scope:  metrics.Scope{Service: fmt.Sprintf("svc-%02d", svc), Version: ver},
					Value:  float64(len(out)) + 0.5,
				})
			}
		}
	}
	rand.New(rand.NewSource(19)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// wireFuzzSeeds are FuzzWireDecode's corpus seeds.
func wireFuzzSeeds() [][]byte {
	var me MetricsEncoder
	var se SpansEncoder
	return [][]byte{
		append([]byte(nil), me.Encode(sampleBatch())...),
		append([]byte(nil), me.Encode(nil)...),
		append([]byte(nil), se.Encode(spanBatch())...),
		append([]byte(nil), se.Encode(nil)...),
		{'C', 'X', Version, KindMetrics, 0, 0, 0, 0},
		{'C', 'X', Version, KindSpans, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

// goldenCase is one batch whose frame is pinned; exactly one of the two
// slices is meaningful, by kind.
type goldenCase struct {
	name    string
	kind    byte
	samples []metrics.Sample
	spans   []tracing.Span
}

func (c goldenCase) encode(me *MetricsEncoder, se *SpansEncoder) []byte {
	if c.kind == KindMetrics {
		return me.Encode(c.samples)
	}
	return se.Encode(c.spans)
}

func goldenCases(t *testing.T) []goldenCase {
	repeatSample := make([]metrics.Sample, 67)
	for i := range repeatSample {
		repeatSample[i] = sampleBatch()[0]
	}
	repeatSpan := make([]tracing.Span, 67) // not a multiple of 8: a partial error-bitset byte
	for i := range repeatSpan {
		repeatSpan[i] = spanBatch()[1]
	}
	cases := []goldenCase{
		{name: "metrics/bench256", kind: KindMetrics, samples: benchSamples(256)},
		{name: "metrics/distinct256", kind: KindMetrics, samples: distinctSamples()},
		{name: "metrics/one", kind: KindMetrics, samples: sampleBatch()[2:3]},
		{name: "metrics/repeat", kind: KindMetrics, samples: repeatSample},
		{name: "spans/bench256", kind: KindSpans, spans: benchSpans(256)},
		{name: "spans/one", kind: KindSpans, spans: spanBatch()[:1]},
		{name: "spans/repeat", kind: KindSpans, spans: repeatSpan},
	}
	// Every fuzz seed a decoder accepts, re-encoded from what it decoded.
	for i, seed := range wireFuzzSeeds() {
		var md MetricsDecoder
		if samples, err := md.Decode(seed); err == nil {
			cases = append(cases, goldenCase{name: fmt.Sprintf("fuzzseed/%d/metrics", i), kind: KindMetrics, samples: samples})
		}
		var sd SpansDecoder
		if spans, err := sd.Decode(seed); err == nil {
			cases = append(cases, goldenCase{name: fmt.Sprintf("fuzzseed/%d/spans", i), kind: KindSpans, spans: spans})
		}
	}
	if len(cases) != 7+4 {
		t.Fatalf("%d golden cases, want 11: a fuzz seed stopped decoding", len(cases))
	}
	return cases
}

// TestEncodeGolden pins the version-2 frame bytes:
// testdata/encode_v2.golden holds one "name hex-frame" line per case,
// each encoded by a fresh encoder when the layout of width-sized index
// columns and a tagged at column was introduced. Every frame must still
// come out byte for byte, from a fresh encoder and from one that has
// encoded every other case before it, in both directions, so scratch
// left over from a larger batch cannot leak into a smaller one, nor an
// index width or at-column tag from one batch into the next.
func TestEncodeGolden(t *testing.T) {
	const path = "testdata/encode_v2.golden"
	cases := goldenCases(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hexFrame, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = frame
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file holds %d frames, the test has %d cases", len(want), len(cases))
	}
	check := func(how string, c goldenCase, got []byte) {
		t.Helper()
		w := want[c.name]
		if bytes.Equal(got, w) {
			return
		}
		at := 0
		for at < len(got) && at < len(w) && got[at] == w[at] {
			at++
		}
		t.Errorf("%s (%s): frame of %d bytes differs from the pinned %d at offset %d", c.name, how, len(got), len(w), at)
	}
	var me MetricsEncoder
	var se SpansEncoder
	for _, c := range cases {
		check("fresh encoder", c, c.encode(new(MetricsEncoder), new(SpansEncoder)))
		check("reused encoder", c, c.encode(&me, &se))
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check("reused encoder, reverse order", cases[i], cases[i].encode(&me, &se))
	}
}
