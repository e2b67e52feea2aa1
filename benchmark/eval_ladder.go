package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/clock"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// eval_ladder: 200 runs launched on one shared clock.Sim, each a canary
// phase with a four-threshold p95 ladder and one relative mean check
// (window 60 s, interval 1 s, thresholds that never trip), journaled to
// a FileLog with the default batched fsync. Closed loop: the harness
// advances the clock one virtual second as soon as every run is parked
// again, while two writers record 64 samples per millisecond of wall
// time into the queried series. It is store reads beside writes, the
// evaluation dispatcher and journal appends, with no HTTP, proxy or
// fleet.
const (
	evalRuns       = 200
	evalChecks     = 5  // per run
	evalWarmTicks  = 80 // more than the 60 s window, so timed queries read full windows
	evalWarmPerSer = 8  // samples per series per warm-up tick, about the timed region's rate
	evalWriters    = 2
	evalBatch      = 64 // samples per writer batch, one batch per millisecond
	evalBatches    = 64 // distinct batches each writer cycles through
	evalWait       = 20 * time.Second
)

// simStart is where every eval_ladder and rollback_fleet clock starts.
var simStart = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

func ladderDSL(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy \"ladder-%03d\" {\n  service = \"svc-%03d\"\n  baseline = \"v1\"\n  candidate = \"v2\"\n", i, i)
	b.WriteString("  phase \"canary\" {\n    practice = canary\n    traffic = 10%\n    duration = 24h\n")
	for _, max := range []int{250, 500, 1000, 2000} {
		fmt.Fprintf(&b, "    check \"p95-%d\" {\n      metric = response_time\n      aggregate = p95\n      max = %d\n      window = 60s\n      interval = 1s\n    }\n", max, max)
	}
	b.WriteString("    check \"regression\" {\n      metric = response_time\n      aggregate = mean\n      scope = relative\n      max = 10\n      window = 60s\n      interval = 1s\n    }\n")
	b.WriteString("    on failure -> rollback\n  }\n}\n")
	return b.String()
}

type evalWorld struct {
	tr      *tracer
	sim     *clock.Sim
	store   *metrics.Store
	querier *spanQuerier // nil in an untraced run
	fileLog *journal.FileLog
	jnl     *watchedJournal
	engine  *bifrost.Engine
	runs    []*bifrost.Run
	dir     string
	op      *opRef

	series  []metrics.Sample // the 400 queried series, one template sample each
	batches [evalWriters][][]metrics.Sample
	written [evalWriters]int           // batches
	writeNS [evalWriters]time.Duration // time inside RecordBatch

	ticks      int      // every tick since launch, warm-up included
	timed      timeline // the timed region's ticks
	timeouts   int
	evalsAt0   int64 // engine counters when the timed region began
	busyAt0    time.Duration
	appendsAt0 int64
	queriesAt0 int64

	heapPerSeries, heapPerRun float64
}

func setupEvalLadder(cfg config, tr *tracer) (world, error) {
	w := &evalWorld{tr: tr, sim: clock.NewSim(simStart), store: metrics.NewStore(0), op: newOpRef()}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if w.dir, err = os.MkdirTemp(cfg.outDir, "journal-eval-*"); err != nil {
		return nil, err
	}
	if w.fileLog, err = journal.Open(w.dir, journal.Options{}); err != nil {
		return nil, err
	}
	w.jnl = newWatchedJournal(w.fileLog, tr, w.op)
	var q bifrost.Querier = w.store
	if tr != nil {
		w.querier = &spanQuerier{inner: w.store, tr: tr, op: w.op}
		q = w.querier
	}
	if w.engine, err = bifrost.NewEngine(bifrost.Config{
		Clock: w.sim, Table: router.NewTable(), Store: q, DefaultCheckInterval: time.Second, Journal: w.jnl,
	}); err != nil {
		return nil, err
	}

	// Inputs: the queried series, the writers' batches, the strategies.
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < evalRuns; i++ {
		for _, ver := range []string{"v1", "v2"} {
			w.series = append(w.series, metrics.Sample{Metric: "response_time",
				Scope: metrics.Scope{Service: fmt.Sprintf("svc-%03d", i), Version: ver}})
		}
	}
	value := func() float64 { return 20 * math.Exp(rng.NormFloat64()/2) }
	for wr := range w.batches {
		for b := 0; b < evalBatches; b++ {
			batch := make([]metrics.Sample, evalBatch)
			for s := range batch {
				batch[s] = w.series[((wr*evalBatches+b)*evalBatch+s)%len(w.series)]
				batch[s].Value = value()
			}
			w.batches[wr] = append(w.batches[wr], batch)
		}
	}
	warm := make([]metrics.Sample, 0, evalWarmPerSer*len(w.series))
	for i := 0; i < evalWarmPerSer; i++ {
		for _, s := range w.series {
			s.Value = value()
			warm = append(warm, s)
		}
	}
	strategies := make([]*bifrost.Strategy, evalRuns)
	for i := range strategies {
		if strategies[i], err = bifrost.ParseStrategy(ladderDSL(i)); err != nil {
			return nil, err
		}
	}

	var heap0, heap1 uint64
	if tr != nil {
		heap0 = liveHeap()
	}
	w.record(warm) // creates every series
	if tr != nil {
		heap1 = liveHeap()
		w.heapPerSeries = ratio(float64(heap1-heap0)/1e3, float64(w.store.SeriesCount()))
	}
	for _, s := range strategies {
		run, err := w.engine.Launch(s)
		if err != nil {
			return nil, err
		}
		w.runs = append(w.runs, run)
	}
	if err := w.settle(); err != nil {
		return nil, err
	}
	if tr != nil {
		w.heapPerRun = ratio(float64(liveHeap()-heap1)/1e3, evalRuns)
	}
	for i := 0; i < evalWarmTicks; i++ {
		w.record(warm)
		if _, err := w.advance(); err != nil {
			return nil, err
		}
		if err := w.settle(); err != nil {
			return nil, err
		}
	}
	ok = true
	return w, nil
}

// record stamps the samples with the simulated now and records them.
func (w *evalWorld) record(samples []metrics.Sample) {
	now := w.sim.Now()
	for i := range samples {
		samples[i].At = now
	}
	w.store.RecordBatch(samples)
}

// advance moves the clock one virtual second and returns the instant
// the tick's last verdict reached the journal. The journal wrapper's
// append count is the completion signal: a sub-millisecond sleep-poll
// of PendingTimers costs over a millisecond on an idle process, a tenth
// of the tick it would be timing.
func (w *evalWorld) advance() (time.Time, error) {
	w.jnl.wakeAt.Store(w.jnl.appends.Load() + evalRuns*evalChecks)
	w.ticks++
	w.sim.Advance(time.Second)
	select {
	case <-w.jnl.wake:
		return time.Now(), nil
	case <-time.After(evalWait):
		return time.Now(), fmt.Errorf("tick %d: %d of %d verdicts journaled after %s", w.ticks,
			w.jnl.appends.Load()-(w.jnl.wakeAt.Load()-evalRuns*evalChecks), evalRuns*evalChecks, evalWait)
	}
}

// settle waits, untimed, until every run is parked on the clock again.
func (w *evalWorld) settle() error {
	deadline := time.Now().Add(evalWait)
	for w.sim.PendingTimers() != evalRuns {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d runs parked after %s", w.sim.PendingTimers(), evalRuns, evalWait)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// write is one writer's loop: one batch per elapsed millisecond,
// catching up by count when a sleep overshoots.
func (w *evalWorld) write(wr int, stop <-chan struct{}) {
	start := time.Now()
	for n := 0; ; n++ {
		if wait := time.Until(start.Add(time.Duration(n) * time.Millisecond)); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		batch := w.batches[wr][n%evalBatches]
		t0 := time.Now()
		w.record(batch)
		w.writeNS[wr] += time.Since(t0)
		w.written[wr]++
	}
}

func (w *evalWorld) measure(d time.Duration) {
	if len(w.timed) == 0 {
		w.evalsAt0, w.busyAt0 = w.engine.EvalStats()
		w.appendsAt0 = w.jnl.appends.Load()
		if w.querier != nil {
			w.queriesAt0 = w.querier.queries.Load()
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wr := 0; wr < evalWriters; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			w.write(wr, stop)
		}(wr)
	}
	s := sliceSamples{traced: w.tr.enabled()}
	start := time.Now()
	for time.Since(start) < d && w.timeouts == 0 {
		t0 := time.Now()
		root := w.tr.begin("bifrost.tick", "bifrost", uint64(w.ticks), noSpan)
		w.op.span.Store(root)
		done, err := w.advance()
		w.op.span.Store(noSpan)
		w.tr.end(root)
		s.latUS = append(s.latUS, micros(done.Sub(t0)))
		if err == nil {
			err = w.settle()
		}
		if err != nil {
			w.timeouts++
		}
	}
	s.wall = time.Since(start)
	close(stop)
	wg.Wait()
	w.timed = append(w.timed, s)
}

func (w *evalWorld) report(r *result, st *spanStats, scales []float64) {
	n := float64(len(w.timed.all()))
	r.attempted = int(n)
	r.failed = w.timeouts
	if w.timeouts > 0 {
		r.problem("a tick did not complete within %s", evalWait)
	}

	// Outputs: every run still running, one check-result per check per
	// tick in every trail, the same count in the engine's own counter,
	// and nothing lost on the way to the journal.
	want := evalChecks * w.ticks
	for _, run := range w.runs {
		if run.Status() != bifrost.StatusRunning {
			r.problem("run %s is %s, want running", run.Strategy().Name, run.Status())
		}
		got := 0
		for _, ev := range run.Events() {
			if ev.Type == bifrost.EventCheckResult {
				got++
			}
		}
		if got != want {
			r.problem("run %s has %d check-result events, want %d", run.Strategy().Name, got, want)
		}
	}
	evals, busyEval := w.engine.EvalStats()
	if evals != int64(evalRuns*want) {
		r.problem("engine counted %d evaluations, want %d", evals, evalRuns*want)
	}
	if n := w.engine.JournalErrors() + w.jnl.errs.Load(); n != 0 {
		r.problem("%d journal errors", n)
	}

	r.setOperation(w.timed, scales, evalRuns*evalChecks)

	timedEvals := float64(evals - w.evalsAt0)
	plane := w.engine.EvalPlane()
	appends := float64(w.jnl.appends.Load() - w.appendsAt0)
	var batches int
	var writeNS time.Duration
	for wr := range w.written {
		batches += w.written[wr]
		writeNS += w.writeNS[wr]
	}
	delays := w.engine.Metrics().Delays
	delayMS := make([]float64, len(delays))
	for i, d := range delays {
		delayMS[i] = millis(d)
	}
	r.set("metrics.recordbatch_us_per_batch", ratio(micros(writeNS), float64(batches)))
	r.set("metrics.series", float64(w.store.SeriesCount()))
	r.set("metrics.heap_kb_per_series", w.heapPerSeries)
	r.set("bifrost.heap_kb_per_run", w.heapPerRun)
	r.set("bifrost.evals_per_tick", ratio(timedEvals, n))
	r.set("bifrost.eval_busy_ms_per_tick", ratio(millis(busyEval-w.busyAt0), n))
	r.set("bifrost.cache_hit_share", ratio(float64(plane.CacheHits), float64(plane.CacheHits+plane.CacheMisses)))
	r.set("bifrost.inline_share", ratio(float64(plane.InlineEvals), float64(evals)))
	r.set("bifrost.eval_delay_p95_ms", percentile(sortedCopy(delayMS), 0.95))
	r.set("journal.appends_per_tick", ratio(appends, n))
	r.set("journal.bytes_per_append", ratio(float64(w.jnl.bytes.Load()), float64(w.jnl.appends.Load())))
	r.set("journal.syncs", float64(w.fileLog.Stats().Syncs))
	r.set("journal.errors", float64(w.engine.JournalErrors()+w.jnl.errs.Load()))
	if st == nil {
		return
	}
	r.set("proc.trace_root_self_share", median(st.rootSelfShare["bifrost.tick"]))
	r.set("metrics.queries_per_tick", ratio(float64(w.querier.queries.Load()-w.queriesAt0), n))
	r.set("metrics.query_errors", float64(w.querier.errs.Load()))
	r.set("metrics.query_quantile_us", median(st.durUS["metrics.query_quantile"]))
	r.set("metrics.query_aggregate_us", median(st.durUS["metrics.query_aggregate"]))
	r.set("journal.append_us", median(st.durUS["journal.append"]))
	r.set("journal.append_p99_us", percentile(sortedCopy(st.durUS["journal.append"]), 0.99))
	r.set("bifrost.tick_self_ms", median(st.selfUS["bifrost.tick"])/1e3)
}

func (w *evalWorld) close() {
	for _, run := range w.runs {
		run.Abort()
	}
	for _, run := range w.runs {
		<-run.Done()
	}
	var err error
	if w.fileLog != nil {
		err = w.fileLog.Close()
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: eval_ladder: closing:", err)
	}
}
