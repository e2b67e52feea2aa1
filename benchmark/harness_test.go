package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// mustMove lists, per workload, per-layer metrics that have to be
// non-zero in a traced run: the layers the workload exercises.
var mustMove = map[string][]string{
	"proxy_canary": {"router.resolve_ns", "router.proxy_hop_us", "router.proxy_added_p50_us", "router.direct_p50_us",
		"router.proxy_allocs_per_req", "router.proxy_p99_us", "proc.trace_root_self_share"},
	"ingest_binary": {"wire.encode_us_per_batch", "wire.decode_us_per_batch", "wire.bytes_per_sample", "wire.client_flushes",
		"server.ingest_handler_us", "server.ingest_json_handler_us", "metrics.recordbatch_us_per_batch",
		"metrics.series", "metrics.heap_kb_per_series"},
	"eval_ladder": {"metrics.query_quantile_us", "metrics.query_aggregate_us", "metrics.queries_per_tick",
		"bifrost.evals_per_tick", "bifrost.cache_hit_share", "bifrost.tick_self_ms", "bifrost.heap_kb_per_run",
		"journal.append_us", "journal.appends_per_tick", "journal.bytes_per_append", "journal.syncs"},
	"rollback_fleet": {"router.swaps_per_cycle", "wire.delta_frame_bytes", "server.submit_handler_us", "server.ingest_handler_us",
		"metrics.query_quantile_us", "bifrost.parse_us", "bifrost.advance_to_verdict_us", "journal.appends_per_cycle",
		"fleet.enact_p50_ms", "fleet.rollback_p50_ms", "fleet.publish_to_last_agent_us", "fleet.broadcasts_per_swap",
		"fleet.heap_kb_per_agent", "agent.resolve_ns"},
}

// TestSmoke runs every workload for about a second, untraced and
// traced, and checks that verification passes and every named metric
// is reported, finite, and non-zero where the workload exercises it.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			name := def.name + "/untraced"
			if trace {
				name = def.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: def.name, seed: 7, duration: time.Second, trace: trace, setups: 1, outDir: t.TempDir()}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				final := finalize(trace, res)
				for _, p := range res.problems {
					t.Errorf("verification: %s", p)
				}
				if !final.Correct || final.Attempted < 1 || final.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", final.Correct, final.Attempted, final.Failed)
				}
				if len(final.Metrics) != len(metricDefs(trace)) {
					t.Errorf("%d metrics reported, want %d", len(final.Metrics), len(metricDefs(trace)))
				}
				for name, m := range final.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
						t.Errorf("%s = %v %q", name, m.Value, m.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !trace {
					return
				}
				for _, name := range mustMove[def.name] {
					if final.Metrics[name].Value == 0 {
						t.Errorf("%s is 0 on a workload that exercises it", name)
					}
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+def.name+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the names the program
// reports: the driver refuses a run whose metrics differ from the file.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, "workload "+w.Name)
	}
	for _, m := range file.EndToEnd {
		got = append(got, "e2e "+m.Name+" "+m.Unit)
	}
	for _, m := range file.PerLayer {
		got = append(got, "layer "+m.Name+" "+m.Unit)
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name)
	}
	for _, m := range e2eMetrics {
		want = append(want, "e2e "+m.name+" "+m.unit)
	}
	for _, m := range layerMetrics {
		want = append(want, "layer "+m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json names %d things, the program %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json has %q where the program has %q", got[i], want[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

// The highest percentile reported always has ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.50}, {19, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		got := highestPercentile(c.n)
		if got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Round(float64(c.n)*got)); got > 0.5 && beyond < 10 {
			t.Errorf("highestPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

// One spoiled slice moves neither the reported median nor the p95, a
// slice's scale applies to its own timings, and the filter separates
// traced slices from untraced ones.
func TestTimeline(t *testing.T) {
	var tl timeline
	for s := 0; s < 10; s++ {
		lat := make([]float64, 40)
		for i := range lat {
			lat[i] = 100 + float64(i%10)
		}
		tl = append(tl, sliceSamples{latUS: lat, wall: time.Second, traced: s >= 7})
	}
	clean := tl.dist(nil, sliceAny)
	for i := range tl[3].latUS {
		tl[3].latUS[i] = 5000
	}
	if spoiled := tl.dist(nil, sliceAny); clean != spoiled || clean.N != 400 || clean.P50 != 104 || clean.P95 != 109 {
		t.Errorf("clean %+v, with one bad slice %+v", clean, spoiled)
	}
	scales := []float64{2, 2, 2, 2, 2, 2, 2, 0.5, 0.5, 0.5}
	if d := tl.dist(scales, sliceUntraced); d.P50 != 208 || d.N != 280 {
		t.Errorf("untraced, scaled by 2: %+v", d)
	}
	if d := tl.dist(scales, sliceTraced); d.P50 != 52 || d.N != 120 {
		t.Errorf("traced, scaled by 0.5: %+v", d)
	}
	if got := tl.rate(nil, sliceAny); got != 40 {
		t.Errorf("rate = %v, want 40 per second", got)
	}
	if got := tl.rate(scales, sliceTraced); got != 80 {
		t.Errorf("scaled rate of the traced slices = %v, want 80 per second", got)
	}
	if got := tl.traceOverhead(); got != 0 {
		t.Errorf("trace overhead = %v, want 0", got)
	}
}

// Self time is the parent minus the union of its children: overlapping
// children count once, a child outliving the parent only while it ran.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // outlives the parent
		{ID: 4, Parent: 2, Start: 25, End: 45},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
	st := analyze(spans)
	if st.ops != 1 || st.rootSelfShare[""][0] != 0.5 {
		t.Errorf("analyze: ops=%d root self share=%v", st.ops, st.rootSelfShare)
	}
}

// quartileSpread matches Python's statistics.quantiles(values, n=4):
// for 1..10 the quartiles are 2.75, 5.5 and 8.25.
func TestQuartileSpread(t *testing.T) {
	values := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(values); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...historyLine) string {
		path := filepath.Join(dir, name)
		for _, l := range lines {
			if err := appendHistory(path, l); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	line := func(p50 float64) historyLine {
		return historyLine{Workload: "proxy_canary", Correct: true, Metrics: map[string]float64{"op_p50_us": p50, "ops_s": 1000}}
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"op_p50_us","unit":"us","better":"lower","bound":0.1},
		{"name":"ops_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", line(100), line(101), line(102))
	same := write("b.jsonl", line(103), line(104), line(105))
	worse := write("c.jsonl", line(120), line(121), line(122))
	if got := compareFiles(base, same, bench); got != 0 {
		t.Errorf("runs within the bound: exit %d, want 0", got)
	}
	if got := compareFiles(base, worse, bench); got != 1 {
		t.Errorf("a 20%% worse median against a 10%% bound: exit %d, want 1", got)
	}
	if got := compareFiles(worse, base, bench); got != 0 {
		t.Errorf("a better median: exit %d, want 0", got)
	}
}
