package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tenancy"
	"contexp/internal/wire"
)

// ingest_binary: closed loop, two emitters, each with its own
// wire.Client, bearer token and tenant. Pre-generated 256-sample
// batches spread over 256 series go Flush -> POST /v1/metrics (binary)
// -> the production middleware chain (auth plus a generous rate limit)
// -> Store.RecordBatch on metrics.NewStore(0), as contexpd builds it.
// It is the telemetry write path with no engine work and no fleet.
const (
	ingestEmitters = 2
	ingestBatch    = 256 // samples per flush, one per series
	ingestBatches  = 64  // distinct batches each emitter cycles through
	ingestWarmup   = 200 // flushes per emitter before timing; the first creates every series
	ingestProbes   = 500 // direct codec/store calls behind the traced run's per-batch costs
	ingestJSON     = 100 // JSON posts behind server.ingest_json_handler_us
)

type emitter struct {
	tenant, token string
	hc            *http.Client
	client        *wire.Client
	batches       [][]metrics.Sample
	op            *opRef

	acked    int // samples the server accepted, warm-up included
	failures int // flushes that returned an error
	flushes  int // flushes sent, the operation id of the next one
	firstErr error
}

// fail counts a failed operation and keeps the first error.
func (e *emitter) fail(err error) {
	e.failures++
	if e.firstErr == nil {
		e.firstErr = err
	}
}

type ingestWorld struct {
	tr       *tracer
	store    *metrics.Store
	limiter  *tenancy.Limiter
	srv      *listener
	handler  *spanHandler // nil in an untraced run
	emitters [ingestEmitters]*emitter

	flushes       timeline
	heapPerSeries float64
	probes        map[string]float64
}

// ingestSeries lists one tenant's series in a fixed order.
func ingestSeries() (out []metrics.Sample) {
	for _, metric := range []string{"response_time", "requests", "errors", "queue_depth"} {
		for svc := 0; svc < 32; svc++ {
			for _, ver := range []string{"v1", "v2"} {
				out = append(out, metrics.Sample{
					Metric: metric,
					Scope:  metrics.Scope{Service: fmt.Sprintf("svc-%02d", svc), Version: ver},
				})
			}
		}
	}
	return out
}

// liveHeap is HeapAlloc after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func setupIngestBinary(cfg config, tr *tracer) (world, error) {
	w := &ingestWorld{tr: tr, probes: make(map[string]float64)}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	var heapBefore uint64
	if tr != nil {
		heapBefore = liveHeap()
	}

	table := router.NewTable()
	w.store = metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: w.store})
	if err != nil {
		return nil, err
	}
	auth, err := tenancy.ParseTokens("tenant-a=token-a,tenant-b=token-b")
	if err != nil {
		return nil, err
	}
	w.limiter = tenancy.NewLimiter(1e6, 1e6) // generous: on the path, never throttling
	srv, err := server.New(server.Config{Engine: engine, Table: table, Store: w.store, Auth: auth, RateLimit: w.limiter})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	series := ingestSeries()
	byToken := make(map[string]*opRef)
	for i, tenant := range []string{"tenant-a", "tenant-b"} {
		e := &emitter{tenant: tenant, token: "token-" + tenant[len(tenant)-1:], op: newOpRef()}
		byToken["Bearer "+e.token] = e.op
		for b := 0; b < ingestBatches; b++ {
			batch := append([]metrics.Sample(nil), series...)
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for s := range batch {
				batch[s].Value = 20 * math.Exp(rng.NormFloat64()/2) // lognormal around 20 ms
			}
			e.batches = append(e.batches, batch)
		}
		w.emitters[i] = e
	}

	h := srv.Handler()
	if tr != nil {
		w.handler = &spanHandler{next: h, tr: tr, name: "server.ingest", layer: "server",
			parent: func(r *http.Request) int32 {
				if op := byToken[r.Header.Get("Authorization")]; op != nil {
					return op.span.Load()
				}
				return noSpan
			}}
		h = w.handler
	}
	if w.srv, err = listen(h); err != nil {
		return nil, err
	}
	for _, e := range w.emitters {
		e.hc = newHTTPClient()
		// A threshold above the batch size: the harness flushes, and
		// times the flush, explicitly.
		e.client = wire.NewClient(w.srv.url, e.hc, 4*ingestBatch)
		e.client.SetToken(e.token)
	}

	w.drive(func(n int, _ time.Time) bool { return n < ingestWarmup })
	for _, e := range w.emitters {
		if e.failures > 0 {
			return nil, fmt.Errorf("warm-up: %d flushes failed: %v", e.failures, e.firstErr)
		}
	}
	if tr != nil {
		w.heapPerSeries = ratio(float64(liveHeap()-heapBefore)/1e3, float64(w.store.SeriesCount()))
	}
	ok = true
	return w, nil
}

// drive runs every emitter's closed loop while more(n, start) holds, n
// being the emitter's own flush count, and returns what it timed.
func (w *ingestWorld) drive(more func(n int, start time.Time) bool) sliceSamples {
	var wg sync.WaitGroup
	out := sliceSamples{traced: w.tr.enabled()}
	lats := make([][]float64, len(w.emitters))
	start := time.Now()
	for i, e := range w.emitters {
		wg.Add(1)
		go func(i int, e *emitter) {
			defer wg.Done()
			for n := 0; more(n, start); n++ {
				batch := e.batches[e.flushes%len(e.batches)]
				e.client.RecordBatch(batch)
				t0 := time.Now()
				root := w.tr.begin("wire.flush", "wire", uint64(i)<<48|uint64(e.flushes), noSpan)
				e.op.span.Store(root)
				err := e.client.Flush()
				e.op.span.Store(noSpan)
				w.tr.end(root)
				lats[i] = append(lats[i], micros(time.Since(t0)))
				e.flushes++
				if err != nil {
					e.fail(err)
					continue
				}
				e.acked += len(batch)
			}
		}(i, e)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, l := range lats {
		out.latUS = append(out.latUS, l...)
	}
	return out
}

func (w *ingestWorld) measure(d time.Duration) {
	w.flushes = append(w.flushes, w.drive(func(_ int, start time.Time) bool { return time.Since(start) < d }))
}

// probe times, outside the timed loop, the calls the ingest handler is
// made of, on the run's own batches: encode, decode, RecordBatch, and
// the same batches posted as JSON (the handler's other format, so a
// binary-path gain that costs JSON shows).
func (w *ingestWorld) probe() {
	e := w.emitters[0]
	enc := wire.GetMetricsEncoder()
	defer wire.PutMetricsEncoder(enc)
	dec := wire.GetMetricsDecoder()
	defer wire.PutMetricsDecoder(dec)

	var frameBytes int
	start := time.Now()
	for i := 0; i < ingestProbes; i++ {
		frameBytes = len(enc.Encode(e.batches[i%len(e.batches)]))
	}
	w.probes["wire.encode_us_per_batch"] = micros(time.Since(start)) / ingestProbes
	w.probes["wire.bytes_per_sample"] = float64(frameBytes) / ingestBatch

	frames := make([][]byte, len(e.batches))
	for i, b := range e.batches {
		frames[i] = append([]byte(nil), enc.Encode(b)...)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for i := 0; i < ingestProbes; i++ {
		if _, err := dec.Decode(frames[i%len(frames)]); err != nil {
			e.firstErr = err
			e.failures++
		}
	}
	w.probes["wire.decode_us_per_batch"] = micros(time.Since(start)) / ingestProbes
	runtime.ReadMemStats(&m1)
	w.probes["wire.decode_allocs_per_batch"] = float64(m1.Mallocs-m0.Mallocs) / ingestProbes

	now := time.Now()
	stamped := make([][]metrics.Sample, len(e.batches))
	for i, b := range e.batches {
		stamped[i] = append([]metrics.Sample(nil), b...)
		for s := range stamped[i] {
			stamped[i][s].At = now
			stamped[i][s].Scope.Tenant = e.tenant
		}
	}
	start = time.Now()
	for i := 0; i < ingestProbes; i++ {
		w.store.RecordBatch(stamped[i%len(stamped)])
	}
	w.probes["metrics.recordbatch_us_per_batch"] = micros(time.Since(start)) / ingestProbes
	e.acked += ingestProbes * ingestBatch

	type observation struct {
		Metric  string  `json:"metric"`
		Service string  `json:"service"`
		Version string  `json:"version"`
		Value   float64 `json:"value"`
	}
	w.handler.name = "server.ingest_json"
	defer func() { w.handler.name = "server.ingest" }()
	for i := 0; i < ingestJSON; i++ {
		batch := e.batches[i%len(e.batches)]
		obs := make([]observation, len(batch))
		for s, sm := range batch {
			obs[s] = observation{sm.Metric, sm.Scope.Service, sm.Scope.Version, sm.Value}
		}
		body, err := json.Marshal(map[string]any{"observations": obs})
		if err == nil {
			err = w.postJSON(e, uint64(i), body)
		}
		if err != nil {
			e.fail(err)
			continue
		}
		e.acked += len(batch)
	}
}

func (w *ingestWorld) postJSON(e *emitter, op uint64, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, w.srv.url+"/v1/metrics", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+e.token)
	root := w.tr.begin("gen.json_post", "gen", 1<<60|op, noSpan)
	e.op.span.Store(root)
	resp, err := e.hc.Do(req)
	e.op.span.Store(noSpan)
	w.tr.end(root)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("JSON ingest returned %s", resp.Status)
	}
	return nil
}

func (w *ingestWorld) report(r *result, st *spanStats, scales []float64) {
	var flushes, clientErrs uint64
	for _, e := range w.emitters {
		r.failed += e.failures
		if e.firstErr != nil {
			r.problem("%s: %v", e.tenant, e.firstErr)
		}
		flushes += e.client.Flushes()
		clientErrs += e.client.Errors()

		// Every acked sample must be countable in the tenant's series.
		var stored float64
		for _, s := range ingestSeries() {
			s.Scope.Tenant = e.tenant
			n, err := w.store.Query(s.Metric, s.Scope, time.Time{}, metrics.AggCount)
			if err != nil {
				r.problem("%s: counting %s %s: %v", e.tenant, s.Metric, s.Scope, err)
			}
			stored += n
		}
		if int(stored) != e.acked {
			r.problem("%s: store holds %d samples, server acked %d", e.tenant, int(stored), e.acked)
		}
	}
	if clientErrs != 0 {
		r.problem("wire.Client.Errors() = %d", clientErrs)
	}
	r.attempted = len(w.flushes.all())
	r.setOperation(w.flushes, scales, 1)

	var throttled uint64
	for _, u := range w.limiter.Stats() {
		throttled += u.Throttled
	}
	r.set("tenancy.rate_limited", float64(throttled))
	r.set("wire.client_flushes", float64(flushes))
	r.set("wire.client_errors", float64(clientErrs))
	r.set("metrics.series", float64(w.store.SeriesCount()))
	r.set("metrics.heap_kb_per_series", w.heapPerSeries)
	if st == nil {
		return
	}
	for name, v := range w.probes {
		r.set(name, v)
	}
	handler := median(st.durUS["server.ingest"])
	r.set("proc.trace_root_self_share", median(st.rootSelfShare["wire.flush"]))
	r.set("server.ingest_handler_us", handler)
	r.set("server.ingest_self_us", max(0, handler-w.probes["wire.decode_us_per_batch"]-w.probes["metrics.recordbatch_us_per_batch"]))
	r.set("server.ingest_json_handler_us", median(st.durUS["server.ingest_json"]))
	r.set("server.non2xx", float64(w.handler.non2xx.Load()))
	r.set("tenancy.auth_rejects", float64(w.handler.unauthorized.Load()))
}

func (w *ingestWorld) close() {
	for _, e := range w.emitters {
		if e != nil && e.hc != nil {
			closeHTTPClient(e.hc)
		}
	}
	if w.srv != nil {
		w.srv.close()
	}
}
