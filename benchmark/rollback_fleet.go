package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/agent"
	"contexp/internal/bifrost"
	"contexp/internal/clock"
	"contexp/internal/fleet"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tenancy"
	"contexp/internal/wire"
)

// rollback_fleet: the whole control loop in serial cycles. server (auth
// on), the engine on clock.Sim, the store, a FileLog and fleet.Hub sit
// behind one loopback listener; 16 agent.Agents hold live watch
// streams. Each cycle submits a canary strategy and waits until every
// agent holds the canary split (enact), then flushes one batch in which
// the candidate is slow, advances the clock to the check, and waits
// until every agent holds the rollback table (rollback, timed from the
// start of the flush). The harness owns both timers, so the number is
// the code path, not the check interval. Every layer does a little.
const (
	fleetAgents   = 16
	fleetServices = 8
	fleetWarmup   = 200  // cycles before timing
	fleetMaxRate  = 1000 // strategies pre-generated per second of timed region
	fleetBatch    = 256
	fleetVariants = 8 // distinct telemetry batches per service
	fleetWait     = 10 * time.Second
	fleetTenant   = "tenant-a"
	fleetToken    = "token-a"
)

func canaryDSL(i int) string {
	return fmt.Sprintf(`strategy "rb-%06d" {
  service = "svc-%d"
  baseline = "v1"
  candidate = "v2"
  phase "canary" {
    practice = canary
    traffic = 10%%
    duration = 10m
    check "latency" {
      metric = response_time
      aggregate = p95
      max = 250
      interval = 1s
    }
    on failure -> rollback
  }
}
`, i, i%fleetServices)
}

// seenVersion is the newest table version a watcher saw and when.
type seenVersion struct {
	ver atomic.Uint64
	at  atomic.Int64 // fleetWorld.stamp
}

type fleetWorld struct {
	tr      *tracer
	sim     *clock.Sim
	store   *metrics.Store
	querier *spanQuerier // nil in an untraced run
	fileLog *journal.FileLog
	jnl     *watchedJournal
	table   *router.Table
	engine  *bifrost.Engine
	hub     *fleet.Hub
	srv     *listener
	submit  *spanHandler // nil in an untraced run
	ingest  *spanHandler
	agents  []*agent.Agent
	hc      *http.Client
	client  *wire.Client
	dir     string
	op      *opRef

	// One watcher goroutine per table (the control plane's, then each
	// agent's) turns Table.Subscribe notifications into seen[i] and a
	// token on arrived, so the harness blocks instead of polling.
	seen     [1 + fleetAgents]seenVersion
	arrived  chan struct{}
	stop     chan struct{}
	watchers sync.WaitGroup
	passive  *fleet.Subscription // traced runs: a 17th watch stream nobody applies
	pubAt    atomic.Int64        // stamp of the passive stream's last delta frame
	pubBytes atomic.Int64        // bytes of delta frames it got
	pubCount atomic.Int64
	verdict  atomic.Int64 // stamp of the journal's last check-result
	epoch    time.Time    // stamps count nanoseconds from here

	dsl     []string
	batches [fleetServices][][]metrics.Sample
	next    int // next strategy

	// The timed region's cycles: every slice of rollbacks has a slice
	// of enacts beside it.
	rollbacks, enacts timeline
	failures          int
	problems          []string
	broken            bool
	lagMax            uint64
	version0          uint64
	appends0          int64
	hubStats0         fleet.Stats
	heapPerAgent      float64
	parseUS           float64
}

func setupRollbackFleet(cfg config, tr *tracer) (world, error) {
	w := &fleetWorld{
		tr: tr, sim: clock.NewSim(simStart), store: metrics.NewStore(0), table: router.NewTable(),
		op: newOpRef(), arrived: make(chan struct{}, 1), stop: make(chan struct{}), epoch: time.Now(),
	}
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
	if w.dir, err = os.MkdirTemp(cfg.outDir, "journal-fleet-*"); err != nil {
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
		checkResult := []byte(`"type":"check-result"`)
		w.jnl.onAppend = func(rec []byte) {
			if bytes.Contains(rec, checkResult) {
				w.verdict.Store(w.stamp())
			}
		}
	}
	if w.engine, err = bifrost.NewEngine(bifrost.Config{
		Clock: w.sim, Table: w.table, Store: q, DefaultCheckInterval: time.Second, Journal: w.jnl,
	}); err != nil {
		return nil, err
	}
	w.hub = fleet.New(fleet.Config{Table: w.table})
	auth, err := tenancy.ParseTokens(fleetTenant + "=" + fleetToken)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Engine: w.engine, Table: w.table, Store: w.store, Journal: w.fileLog, Fleet: w.hub, Auth: auth,
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		// The harness's own two requests get spans; agents' watch
		// streams and heartbeats pass through untouched.
		inner := h
		w.submit = &spanHandler{next: inner, tr: tr, name: "server.submit", layer: "server", parent: parentFromHeader}
		w.ingest = &spanHandler{next: inner, tr: tr, name: "server.ingest", layer: "server",
			parent: func(*http.Request) int32 { return w.op.span.Load() }}
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/strategies":
				w.submit.ServeHTTP(rw, r)
			case r.Method == http.MethodPost && r.URL.Path == "/v1/metrics":
				w.ingest.ServeHTTP(rw, r)
			default:
				inner.ServeHTTP(rw, r)
			}
		})
	}
	if w.srv, err = listen(h); err != nil {
		return nil, err
	}

	// Inputs: strategies for every cycle the run can reach, and per
	// service a few batches with a healthy baseline and a slow candidate.
	rng := rand.New(rand.NewSource(cfg.seed))
	w.dsl = make([]string, fleetWarmup+int(math.Ceil(cfg.duration.Seconds()*fleetMaxRate)))
	for i := range w.dsl {
		w.dsl[i] = canaryDSL(i)
	}
	for svc := range w.batches {
		for v := 0; v < fleetVariants; v++ {
			batch := make([]metrics.Sample, fleetBatch)
			for s := range batch {
				scope := metrics.Scope{Service: "svc-" + strconv.Itoa(svc), Version: "v1"}
				value := 100 * math.Exp(rng.NormFloat64()/4)
				if s%2 == 1 {
					scope.Version, value = "v2", 900*math.Exp(rng.NormFloat64()/8)
				}
				batch[s] = metrics.Sample{Metric: "response_time", Scope: scope, Value: value}
			}
			w.batches[svc] = append(w.batches[svc], batch)
		}
	}

	var heap0 uint64
	if tr != nil {
		heap0 = liveHeap()
	}
	w.watch(0, w.table)
	for i := 0; i < fleetAgents; i++ {
		a, err := agent.New(agent.Config{
			ID: fmt.Sprintf("edge-%02d", i), ControlPlane: w.srv.url, Token: fleetToken,
		})
		if err != nil {
			return nil, err
		}
		w.agents = append(w.agents, a)
		w.watch(1+i, a.Table())
		a.Start()
	}
	deadline := time.Now().Add(fleetWait)
	for _, a := range w.agents {
		for !a.Connected() {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("agents did not connect within %s", fleetWait)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if tr != nil {
		w.heapPerAgent = ratio(float64(liveHeap()-heap0)/1e3, fleetAgents)
		if w.passive, err = w.hub.Watch("passive", "", 0); err != nil {
			return nil, err
		}
		w.watchers.Add(1)
		go w.drainPassive()
	}
	w.hc = newHTTPClient()
	w.client = wire.NewClient(w.srv.url, w.hc, 4*fleetBatch)
	w.client.SetToken(fleetToken)

	for i := 0; i < fleetWarmup; i++ {
		if _, _, err := w.cycle(); err != nil {
			return nil, fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	if w.failures > 0 {
		return nil, fmt.Errorf("warm-up: %d cycles failed verification: %v", w.failures, w.problems)
	}
	ok = true
	return w, nil
}

// stamp is the current instant as nanoseconds since the world's epoch,
// small enough for an atomic and still on the monotonic clock.
func (w *fleetWorld) stamp() int64 { return int64(time.Since(w.epoch)) }

// watch starts the watcher of one table.
func (w *fleetWorld) watch(slot int, t *router.Table) {
	ch, cancel := t.Subscribe()
	w.watchers.Add(1)
	go func() {
		defer w.watchers.Done()
		defer cancel()
		for {
			select {
			case <-w.stop:
				return
			case <-ch:
			}
			if v := t.Version(); v > w.seen[slot].ver.Load() {
				w.seen[slot].at.Store(w.stamp())
				w.seen[slot].ver.Store(v)
				select {
				case w.arrived <- struct{}{}:
				default:
				}
			}
		}
	}()
}

// drainPassive reads the 17th watch stream: what the hub publishes and
// when, seen from outside.
func (w *fleetWorld) drainPassive() {
	defer w.watchers.Done()
	for {
		select {
		case <-w.stop:
			return
		case frame, open := <-w.passive.Frames():
			if !open {
				return
			}
			if wire.Kind(frame) == wire.KindDelta {
				w.pubAt.Store(w.stamp())
				w.pubBytes.Add(int64(len(frame)))
				w.pubCount.Add(1)
			}
		}
	}
}

// await blocks until the control plane's table and every agent's have
// reached version.
func (w *fleetWorld) await(version uint64, timeout *time.Timer) error {
	for {
		reached := true
		for i := range w.seen {
			if w.seen[i].ver.Load() < version {
				reached = false
				break
			}
		}
		if reached {
			return nil
		}
		select {
		case <-w.arrived:
		case <-timeout.C:
			return fmt.Errorf("not every table reached version %d within %s", version, fleetWait)
		}
	}
}

// cycle runs one enact + rollback cycle, verifies it, and returns how
// long each half took.
func (w *fleetWorld) cycle() (enact, rollback time.Duration, err error) {
	if w.next == len(w.dsl) {
		return 0, 0, errors.New("out of pre-generated strategies")
	}
	i := w.next
	w.next++
	svc := i % fleetServices
	name := fmt.Sprintf("rb-%06d", i)
	route := tenancy.Qualify(fleetTenant, "svc-"+strconv.Itoa(svc))
	timeout := time.NewTimer(fleetWait)
	defer timeout.Stop()
	v0 := w.table.Version()

	// Enact: submit, then wait for the canary split at every agent.
	// Launch swaps the table twice: all-baseline, then the split.
	t0 := time.Now()
	root := w.tr.begin("fleet.enact", "gen", uint64(2*i), noSpan)
	req, err := http.NewRequest(http.MethodPost, w.srv.url+"/v1/strategies", strings.NewReader(w.dsl[i]))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+fleetToken)
	if root >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(root)))
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return 0, 0, fmt.Errorf("submitting %s: %s", name, resp.Status)
	}
	if err := w.await(v0+2, timeout); err != nil {
		return 0, 0, fmt.Errorf("enact %s: %w", name, err)
	}
	w.tr.end(root)
	enact = time.Since(t0)

	run, found := w.engine.Get(tenancy.Qualify(fleetTenant, name))
	if !found {
		return 0, 0, fmt.Errorf("engine has no run %s", name)
	}
	batch := w.batches[svc][(i/fleetServices)%fleetVariants]
	now := w.sim.Now()
	for s := range batch {
		batch[s].At = now
	}
	w.client.RecordBatch(batch)

	// Rollback: flush the slow candidate's telemetry, fire the check.
	t1 := time.Now()
	root = w.tr.begin("fleet.rollback", "gen", uint64(2*i+1), noSpan)
	flush := w.tr.begin("wire.flush", "wire", 0, root)
	w.op.span.Store(flush) // the ingest handler's span hangs under the flush
	err = w.client.Flush()
	w.tr.end(flush)
	w.op.span.Store(root) // queries and journal appends hang under the cycle
	if err != nil {
		return 0, 0, fmt.Errorf("flush for %s: %w", name, err)
	}
	for w.sim.PendingTimers() != 1 { // the run is parked long before the flush returns
		select {
		case <-timeout.C:
			return 0, 0, fmt.Errorf("run %s never parked on its check timer", name)
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	due, _ := w.sim.NextDeadline()
	tAdvance := time.Now()
	w.sim.AdvanceTo(due)
	if err := w.await(v0+3, timeout); err != nil {
		return 0, 0, fmt.Errorf("rollback %s: %w", name, err)
	}
	tDone := time.Now()
	w.op.span.Store(noSpan)
	w.tr.end(root)
	rollback = tDone.Sub(t1)
	if root >= 0 {
		w.recordHops(root, tAdvance)
	}

	select {
	case <-run.Done():
	case <-timeout.C:
		return 0, 0, fmt.Errorf("run %s did not finish", name)
	}
	if problem := w.verify(run, route, v0+3); problem != "" {
		w.failures++
		if len(w.problems) < 5 {
			w.problems = append(w.problems, name+": "+problem)
		}
	}
	return enact, rollback, nil
}

// recordHops cuts the rollback into its blocking path from instants
// observed outside the layers: advance -> verdict journaled -> table
// swapped -> delta published -> first agent -> last agent.
func (w *fleetWorld) recordHops(root int32, tAdvance time.Time) {
	first, last := int64(math.MaxInt64), int64(0)
	for i := 1; i < len(w.seen); i++ {
		at := w.seen[i].at.Load()
		first, last = min(first, at), max(last, at)
	}
	at := tAdvance
	for _, hop := range []struct {
		name, layer string
		end         int64
	}{
		{"bifrost.advance_to_verdict", "bifrost", w.verdict.Load()},
		{"bifrost.verdict_to_swap", "bifrost", w.seen[0].at.Load()},
		{"fleet.swap_to_publish", "fleet", w.pubAt.Load()},
		{"fleet.publish_to_first_agent", "fleet", first},
		{"fleet.first_to_last_agent", "agent", last},
	} {
		// Watchers stamp after they wake, so neighbours can land a few
		// microseconds out of order; a hop never runs backwards.
		end := w.epoch.Add(time.Duration(hop.end))
		if end.Before(at) {
			end = at
		}
		w.tr.add(hop.name, hop.layer, 0, root, at, end)
		at = end
	}
}

// verify checks one finished cycle: the run rolled back with exactly
// one terminal event, and every agent serves no candidate traffic at
// the control plane's exact version, none of them stale.
func (w *fleetWorld) verify(run *bifrost.Run, route string, want uint64) string {
	if run.Status() != bifrost.StatusRolledBack {
		return fmt.Sprintf("run is %s, want rolled-back", run.Status())
	}
	finished := 0
	for _, ev := range run.Events() {
		if ev.Type == bifrost.EventRunFinished {
			finished++
		}
	}
	if finished != 1 {
		return fmt.Sprintf("%d run-finished events, want 1", finished)
	}
	if v := w.table.Version(); v != want {
		return fmt.Sprintf("control plane at version %d, want %d", v, want)
	}
	for _, a := range w.agents {
		if v := a.Version(); v != want {
			w.lagMax = max(w.lagMax, want-min(v, want))
			return fmt.Sprintf("agent at version %d, control plane at %d", v, want)
		}
		if a.Stale() {
			return "an agent reports itself stale"
		}
		r, err := a.Table().Route(route)
		if err != nil {
			return err.Error()
		}
		for _, b := range r.Backends {
			if b.Version != "v1" && b.Weight > 0 {
				return fmt.Sprintf("an agent still routes %.0f%% to %s", 100*b.Weight, b.Version)
			}
		}
	}
	return ""
}

func (w *fleetWorld) measure(d time.Duration) {
	if len(w.rollbacks) == 0 {
		w.version0 = w.table.Version()
		w.appends0 = w.jnl.appends.Load()
		w.hubStats0 = w.hub.Stats()
	}
	rb := sliceSamples{traced: w.tr.enabled()}
	en := rb
	start := time.Now()
	for time.Since(start) < d && !w.broken {
		enact, rollback, err := w.cycle()
		if err != nil {
			w.failures++
			w.problems = append(w.problems, err.Error())
			w.broken = true // a cycle that did not finish leaves a live run behind
			break
		}
		en.latUS = append(en.latUS, micros(enact))
		rb.latUS = append(rb.latUS, micros(rollback))
	}
	rb.wall = time.Since(start)
	en.wall = rb.wall
	w.rollbacks = append(w.rollbacks, rb)
	w.enacts = append(w.enacts, en)
}

// probe times ParseStrategy on the run's own strategy texts.
func (w *fleetWorld) probe() {
	start := time.Now()
	for _, src := range w.dsl[:fleetWarmup] {
		if _, err := bifrost.ParseStrategy(src); err != nil {
			w.problems = append(w.problems, err.Error())
		}
	}
	w.parseUS = micros(time.Since(start)) / fleetWarmup
}

func (w *fleetWorld) report(r *result, st *spanStats, scales []float64) {
	enact := w.enacts.all()
	n := float64(len(enact))
	r.attempted = int(n) + w.failures
	r.failed = w.failures
	for _, p := range w.problems {
		r.problem("%s", p)
	}
	hub := w.hub.Stats()
	if hub.Lagged != 0 {
		r.problem("hub dropped %d lagging subscribers", hub.Lagged)
	}
	stale := 0
	for _, a := range w.agents {
		if a.Stale() {
			stale++
		}
	}
	if n := w.engine.JournalErrors() + w.jnl.errs.Load(); n != 0 {
		r.problem("%d journal errors", n)
	}
	if n := w.client.Errors(); n != 0 {
		r.problem("wire.Client.Errors() = %d", n)
	}

	r.setOperation(w.rollbacks, scales, 1)

	swaps := float64(w.table.Version() - w.version0)
	en := w.enacts.dist(nil, sliceAny)
	r.setDist("fleet.enact_p50_ms", "fleet.enact_p95_ms", dist{P50: en.P50 / 1e3, P95: en.P95 / 1e3, N: en.N})
	r.set("fleet.rollback_p50_ms", w.rollbacks.dist(nil, sliceAny).P50/1e3)
	if q := len(enact) / 4; q > 0 {
		r.set("bifrost.enact_first_q_ms", median(enact[:q])/1e3)
		r.set("bifrost.enact_last_q_ms", median(enact[len(enact)-q:])/1e3)
	}
	r.set("router.swaps_per_cycle", ratio(swaps, n))
	r.set("wire.client_flushes", float64(w.client.Flushes()))
	r.set("wire.client_errors", float64(w.client.Errors()))
	r.set("metrics.series", float64(w.store.SeriesCount()))
	r.set("journal.appends_per_cycle", ratio(float64(w.jnl.appends.Load()-w.appends0), n))
	r.set("journal.bytes_per_append", ratio(float64(w.jnl.bytes.Load()), float64(w.jnl.appends.Load())))
	r.set("journal.syncs", float64(w.fileLog.Stats().Syncs))
	r.set("journal.errors", float64(w.engine.JournalErrors()+w.jnl.errs.Load()))
	r.set("fleet.broadcasts_per_swap", ratio(float64(hub.Broadcasts-w.hubStats0.Broadcasts), swaps))
	r.set("fleet.lagged", float64(hub.Lagged))
	r.set("fleet.snapshots", float64(hub.Snapshots))
	r.set("fleet.catchups", float64(hub.CatchUps))
	r.set("fleet.heap_kb_per_agent", w.heapPerAgent)
	r.set("agent.stale", float64(stale))
	r.set("agent.version_lag_max", float64(w.lagMax))
	if st == nil {
		return
	}
	r.set("proc.trace_root_self_share", median(st.rootSelfShare["fleet.rollback"]))
	r.set("bifrost.parse_us", w.parseUS)
	r.set("bifrost.advance_to_verdict_us", median(st.durUS["bifrost.advance_to_verdict"]))
	r.set("bifrost.verdict_to_swap_us", median(st.durUS["bifrost.verdict_to_swap"]))
	r.set("fleet.swap_to_publish_us", median(st.durUS["fleet.swap_to_publish"]))
	r.set("fleet.publish_to_last_agent_us",
		median(st.durUS["fleet.publish_to_first_agent"])+median(st.durUS["fleet.first_to_last_agent"]))
	r.set("fleet.agent_skew_us", median(st.durUS["fleet.first_to_last_agent"]))
	r.set("wire.delta_frame_bytes", ratio(float64(w.pubBytes.Load()), float64(w.pubCount.Load())))
	r.set("server.submit_handler_us", median(st.durUS["server.submit"]))
	r.set("server.ingest_handler_us", median(st.durUS["server.ingest"]))
	r.set("server.non2xx", float64(w.submit.non2xx.Load()+w.ingest.non2xx.Load()))
	r.set("tenancy.auth_rejects", float64(w.submit.unauthorized.Load()+w.ingest.unauthorized.Load()))
	r.set("metrics.query_quantile_us", median(st.durUS["metrics.query_quantile"]))
	r.set("metrics.query_errors", float64(w.querier.errs.Load()))
	r.set("journal.append_us", median(st.durUS["journal.append"]))
	r.set("journal.append_p99_us", percentile(sortedCopy(st.durUS["journal.append"]), 0.99))
	r.set("agent.resolve_ns", w.timeAgentResolve())
}

// timeAgentResolve is the mean cost of resolving from an agent's local
// table, in nanoseconds.
func (w *fleetWorld) timeAgentResolve() float64 {
	t := w.agents[0].Table()
	services := t.Services()
	if len(services) == 0 {
		return 0
	}
	const n = 200_000
	req := &router.Request{}
	start := time.Now()
	for i := 0; i < n; i++ {
		req.UserID = "user-" + strconv.Itoa(i%1024)
		if _, err := t.Resolve(services[i%len(services)], req); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / n
}

func (w *fleetWorld) close() {
	for _, a := range w.agents {
		_ = a.Close()
	}
	close(w.stop)
	if w.passive != nil {
		w.hub.Unwatch(w.passive)
	}
	w.watchers.Wait()
	if w.hub != nil {
		w.hub.Close()
	}
	if w.hc != nil {
		closeHTTPClient(w.hc)
	}
	if w.srv != nil {
		w.srv.close()
	}
	if w.engine != nil {
		for _, run := range w.engine.Runs() {
			run.Abort()
		}
		for _, run := range w.engine.Runs() {
			<-run.Done()
		}
	}
	var err error
	if w.fileLog != nil {
		err = w.fileLog.Close()
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: rollback_fleet: closing:", err)
	}
}
