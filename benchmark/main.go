// Command benchmark is contexp's end-to-end benchmark: one process boots
// the real layers over loopback TCP, drives one of four workloads at
// them, checks the outputs, and prints every metric by name and unit.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
//
// The workloads, the metrics, what each per-layer metric is expected to
// move, and how to read the span file are in benchmark/README.md. The
// last line of standard output is the machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run boots and warms the
// workload's world; setup_s is the median, the last world is measured.
const setupReps = 7

// timedSlices is how many slices the timed region is cut into. Each has
// a calibration on either side (calibrate.go) and is reduced on its own;
// the run reports the median over slices.
const timedSlices = 10

// untracedSlices is how many leading slices of a traced run keep the
// tracer off, so trace overhead is read within one run.
const untracedSlices = 3

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	setups   int    // set-up repetitions of an untraced run
	outDir   string // span files and scratch (journals) go here
}

// world is one booted, warmed-up instance of a workload's layers.
type world interface {
	// measure drives the workload for one slice of about d and appends
	// what it timed to the world's timeline.
	measure(d time.Duration)
	// report checks the outputs and fills in the metrics. scales holds
	// each slice's calibration; st holds the span reductions of a
	// traced run and is nil otherwise.
	report(r *result, st *spanStats, scales []float64)
	// close stops every goroutine, listener and file the world owns.
	close()
}

// prober is a world with direct timed calls into its layers to make at
// the end of a traced run.
type prober interface{ probe() }

type workloadDef struct {
	name  string
	why   string
	setup func(cfg config, tr *tracer) (world, error)
}

var workloads = []workloadDef{
	{"proxy_canary", "smallest message through router.Proxy alone; per-request proxy cost dominates", setupProxyCanary},
	{"ingest_binary", "telemetry write path wire -> server -> tenancy -> metrics, no engine and no fleet", setupIngestBinary},
	{"eval_ladder", "200 runs' check ladders per tick: store reads beside writes, dispatcher, journal; no HTTP", setupEvalLadder},
	{"rollback_fleet", "whole control loop: submit, flush, verdict, journal, table swap, hub, 16 agents", setupRollbackFleet},
}

type metricDef struct{ name, unit string }

// Every workload reports every end-to-end metric (untraced) and every
// per-layer metric (traced); a per-layer metric of a layer the workload
// bypasses reads 0. BENCHMARK.json lists the same names.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"ops_s", "1/s"},
	{"heap_mb", "MB"},
}

var layerMetrics = []metricDef{
	{"router.resolve_ns", "ns"},
	{"router.proxy_hop_us", "us"},
	{"router.proxy_added_p50_us", "us"},
	{"router.direct_p50_us", "us"},
	{"router.proxy_allocs_per_req", "count"},
	{"router.proxy_bytes_per_req", "B"},
	{"router.proxy_p95_us", "us"},
	{"router.proxy_p99_us", "us"},
	{"router.mirror_drops", "count"},
	{"router.version_share_err", "count"},
	{"router.swaps_per_cycle", "count"},
	{"wire.encode_us_per_batch", "us"},
	{"wire.decode_us_per_batch", "us"},
	{"wire.decode_allocs_per_batch", "count"},
	{"wire.bytes_per_sample", "B"},
	{"wire.client_flushes", "count"},
	{"wire.client_errors", "count"},
	{"wire.delta_frame_bytes", "B"},
	{"server.ingest_handler_us", "us"},
	{"server.ingest_self_us", "us"},
	{"server.ingest_json_handler_us", "us"},
	{"server.submit_handler_us", "us"},
	{"server.non2xx", "count"},
	{"tenancy.auth_rejects", "count"},
	{"tenancy.rate_limited", "count"},
	{"metrics.recordbatch_us_per_batch", "us"},
	{"metrics.query_quantile_us", "us"},
	{"metrics.query_aggregate_us", "us"},
	{"metrics.queries_per_tick", "count"},
	{"metrics.query_errors", "count"},
	{"metrics.series", "count"},
	{"metrics.heap_kb_per_series", "kB"},
	{"bifrost.evals_per_tick", "count"},
	{"bifrost.eval_busy_ms_per_tick", "ms"},
	{"bifrost.cache_hit_share", "ratio"},
	{"bifrost.inline_share", "ratio"},
	{"bifrost.eval_delay_p95_ms", "ms"},
	{"bifrost.tick_self_ms", "ms"},
	{"bifrost.heap_kb_per_run", "kB"},
	{"bifrost.parse_us", "us"},
	{"bifrost.advance_to_verdict_us", "us"},
	{"bifrost.verdict_to_swap_us", "us"},
	{"bifrost.enact_first_q_ms", "ms"},
	{"bifrost.enact_last_q_ms", "ms"},
	{"journal.append_us", "us"},
	{"journal.append_p99_us", "us"},
	{"journal.appends_per_tick", "count"},
	{"journal.appends_per_cycle", "count"},
	{"journal.bytes_per_append", "B"},
	{"journal.syncs", "count"},
	{"journal.errors", "count"},
	{"fleet.enact_p50_ms", "ms"},
	{"fleet.enact_p95_ms", "ms"},
	{"fleet.rollback_p50_ms", "ms"},
	{"fleet.swap_to_publish_us", "us"},
	{"fleet.publish_to_last_agent_us", "us"},
	{"fleet.agent_skew_us", "us"},
	{"fleet.broadcasts_per_swap", "ratio"},
	{"fleet.lagged", "count"},
	{"fleet.snapshots", "count"},
	{"fleet.catchups", "count"},
	{"fleet.heap_kb_per_agent", "kB"},
	{"agent.resolve_ns", "ns"},
	{"agent.stale", "count"},
	{"agent.version_lag_max", "count"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.minor_faults", "count"},
	{"proc.trace_overhead_share", "ratio"},
	{"proc.trace_root_self_share", "ratio"},
	{"gen.op_p50_us", "us"},
	{"gen.op_p95_us", "us"},
	{"gen.echo_p50_us", "us"},
	{"gen.speed_scale", "ratio"},
	{"gen.gomaxprocs", "count"},
	{"gen.traced_ops", "count"},
}

// result is what one run measured and verified.
type result struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	counts    map[string]int // sample counts behind the timings
}

func newResult() *result {
	return &result{values: make(map[string]float64), counts: make(map[string]int)}
}

// problem records a verification failure; any problem makes the run
// incorrect and the exit code non-zero.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setOperation reports the workload's timed operation. The end-to-end
// metrics come from the untraced slices, scaled by the calibration;
// raw.* hold the same as measured, for the header and the history file.
// gen.op_* are the traced slices as measured, beside the spans they were
// taken with. opsPer is how many operations ops_s counts per sample.
func (r *result) setOperation(t timeline, scales []float64, opsPer float64) {
	r.setDist("op_p50_us", "", t.dist(scales, sliceUntraced))
	r.set("ops_s", opsPer*t.rate(scales, sliceUntraced))
	r.setDist("raw.op_p50_us", "raw.op_p95_us", t.dist(nil, sliceUntraced))
	r.set("raw.ops_s", opsPer*t.rate(nil, sliceUntraced))
	r.setDist("gen.op_p50_us", "gen.op_p95_us", t.dist(nil, sliceTraced))
	r.set("proc.trace_overhead_share", t.traceOverhead())
}

func (r *result) setDist(p50Name, p95Name string, d dist) {
	r.values[p50Name] = d.P50
	r.counts[p50Name] = d.N
	if p95Name != "" {
		r.values[p95Name] = d.P95
		r.counts[p95Name] = d.N
	}
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets the workload up (several times when untraced, for
// setup_s), measures it, verifies it, and returns the metrics.
func runWorkload(cfg config) (*result, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	reps := cfg.setups
	if cfg.trace {
		tr = newTracer()
		reps = 1
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	// Set-ups are scaled like slices: a calibration before each and one
	// after the last, a set-up scaled by the mean of the two around it.
	var w world
	var setups, rawSetups []float64
	setupEcho := cal.echoUS(echoDuration)
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC() // each repetition starts from an empty heap
		}
		start := time.Now()
		if w, err = def.setup(cfg, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		took := time.Since(start).Seconds()
		after := cal.echoUS(echoDuration)
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*scale((setupEcho+after)/2))
		setupEcho = after
	}
	defer w.close()

	prefaultHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	faultsBefore := usage().Minflt
	// One calibration before every slice and one after the last: a slice
	// is scaled by the mean of the two around it.
	slice := cfg.duration / timedSlices
	echoFor := min(echoDuration, slice)
	echoes := []float64{cal.echoUS(echoFor)}
	var scales []float64
	for i := 0; i < timedSlices; i++ {
		if tr != nil && i == untracedSlices {
			tr.on.Store(true)
		}
		w.measure(slice)
		echoes = append(echoes, cal.echoUS(echoFor))
		scales = append(scales, scale((echoes[i]+echoes[i+1])/2))
	}
	if cal.err != nil {
		return nil, fmt.Errorf("calibration round trip: %w", cal.err)
	}
	if p, ok := w.(prober); ok && tr != nil {
		p.probe()
	}
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&after)
	faults := usage().Minflt - faultsBefore

	res := newResult()
	var st *spanStats
	if tr != nil {
		reduced := analyze(tr.snapshot())
		st = &reduced
	}
	w.report(res, st, scales)
	if res.attempted == 0 {
		res.problem("no operation completed in %s", cfg.duration)
		res.attempted, res.failed = 1, 1
	}
	res.set("gen.echo_p50_us", median(echoes))
	res.set("gen.speed_scale", median(scales))
	fmt.Printf("# bare loopback round trip beside the run: p50 %.1f us (min %.1f, max %.1f over %d calibrations); end-to-end timings are scaled to %.0f us\n",
		median(echoes), percentile(sortedCopy(echoes), 0.001), percentile(sortedCopy(echoes), 1), len(echoes), refEchoUS)
	res.set("setup_s", median(setups))
	res.counts["setup_s"] = len(setups)
	res.set("raw.setup_s", median(rawSetups))
	// The live heap when the timed region began: the booted, warmed
	// world, whose populations are fixed by count, just collected by
	// prefaultHeap, before the harness holds a single sample.
	res.set("heap_mb", float64(before.HeapAlloc)/1e6)
	res.set("proc.gc_cycles", float64(after.NumGC-before.NumGC))
	res.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.set("proc.minor_faults", float64(faults))
	res.set("proc.peak_rss_mb", float64(usage().Maxrss)/1e3) // ru_maxrss is kB on Linux
	fmt.Printf("# %d page faults in the timed region (GODEBUG=%q)\n", faults, os.Getenv("GODEBUG"))
	res.set("gen.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	if st != nil {
		spans := tr.snapshot()
		res.set("gen.traced_ops", float64(st.ops))
		path, err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, spans)
		if err != nil {
			return nil, fmt.Errorf("writing span file: %w", err)
		}
		fmt.Printf("# %d spans recorded, the leading operations' written to %s\n", len(spans), path)
	}
	return res, nil
}

// prefaultHeap collects, then touches twice the fresh memory the heap
// may grow by before the collector's next cycle, and frees it again.
// First touch of a page costs 2 to 60 microseconds on the reference
// box (a guest whose freed pages the host takes back within seconds),
// so a run whose garbage spills into untouched memory is up to three
// times slower than the same run on recycled pages, and by how much
// changes from minute to minute. The second helping is for growth
// inside the timed region: eval_ladder's event trails add 40 MB of
// live heap a slice and the collector's goal moves by twice that.
// run.sh sets GODEBUG=madvdontneed=0, so what the scavenger hands back
// afterwards stays resident until the kernel wants it, and the timed
// region takes no page faults (proc.minor_faults): the state of a
// long-running daemon on a machine with memory to spare.
func prefaultHeap() {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	room := 2 * (int64(ms.NextGC) - int64(ms.HeapAlloc))
	resident := int64(ms.HeapIdle) - int64(ms.HeapReleased)
	if room > resident {
		ballast := make([]byte, room-resident)
		for i := 0; i < len(ballast); i += 4096 {
			ballast[i] = 1
		}
		runtime.KeepAlive(ballast)
	}
	runtime.GC()
}

// usage is the process's resource usage: peak resident set and the
// count of page faults served without I/O.
func usage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// metricDefs are the metrics a run reports: end-to-end when untraced,
// per-layer when traced.
func metricDefs(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return e2eMetrics
}

// finalize turns a result into the contract's last line: every metric
// of the run's kind by name, correct only if every check passed.
func finalize(trace bool, res *result) finalLine {
	defs := metricDefs(trace)
	final := finalLine{Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is not finite", d.name)
			v = 0
		}
		final.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	final.Correct = len(res.problems) == 0 && res.failed == 0
	return final
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// historyLine is one run in benchmark/history.jsonl, and one input row
// of --compare.
type historyLine struct {
	Time      string             `json:"time"`
	Commit    string             `json:"commit"`
	Go        string             `json:"go"`
	NProc     int                `json:"nproc"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func appendHistory(path string, line historyLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "proxy_canary | ingest_binary | eval_ladder | rollback_fleet")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "length of the timed region")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	history := fs.String("history", filepath.Join("benchmark", "history.jsonl"), "file each run appends one line to")
	compare := fs.Bool("compare", false, "compare two history files: --compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: --compare takes two history files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json")
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   setupReps,
		outDir:   filepath.Join("benchmark", "out"),
	}
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	fmt.Printf("# contexp benchmark: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, *seconds, cfg.trace)
	fmt.Printf("# commit=%s go=%s nproc=%d GOMAXPROCS=%d\n", commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# all traffic crosses loopback TCP inside this one process; generators and layers share its %d cores\n", runtime.NumCPU())
	fmt.Printf("# why: %s\n", def.why)

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	final := finalize(cfg.trace, res)
	flat := make(map[string]float64, len(final.Metrics))
	for _, d := range metricDefs(cfg.trace) {
		m := final.Metrics[d.name]
		flat[d.name] = m.Value
		if n, ok := res.counts[d.name]; ok {
			fmt.Printf("%-34s %16.4f %-6s n=%d\n", d.name, m.Value, m.Unit, n)
		} else {
			fmt.Printf("%-34s %16.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for name, v := range res.values {
		if strings.HasPrefix(name, "raw.") {
			flat[name] = v
		}
	}
	if !cfg.trace {
		fmt.Printf("# as measured, unscaled: setup_s=%.4f op_p50_us=%.4f op_p95_us=%.4f ops_s=%.4f\n",
			flat["raw.setup_s"], flat["raw.op_p50_us"], flat["raw.op_p95_us"], flat["raw.ops_s"])
	}
	fmt.Printf("%-34s %16.6f ratio  (%d failed of %d attempted)\n", "failed_share",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if n := res.counts["op_p50_us"]; n > 0 {
		fmt.Printf("# highest percentile %d samples support (ten beyond it): p%g\n", n, highestPercentile(n)*100)
	}
	for _, p := range res.problems {
		fmt.Printf("# VERIFICATION FAILED: %s\n", p)
	}

	if err := appendHistory(*history, historyLine{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace,
		Correct: final.Correct, Attempted: final.Attempted, Failed: final.Failed, Metrics: flat,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: history:", err)
	}

	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	if !final.Correct {
		return 1
	}
	return 0
}
