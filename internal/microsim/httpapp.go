package microsim

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

// HTTPApplication deploys an Application as real HTTP servers on
// loopback: one backend server per (service, version) plus one routing
// proxy per service, wired through the shared routing table — the
// wire-level twin of the in-process Sim. Bifrost strategies executed
// against the table reroute real requests, exactly as in the paper's
// testbed (Section 4.5.1), with localhost standing in for the cloud
// network.
//
// Endpoint latencies are slept for real, scaled by LatencyScale, and
// each backend self-reports response-time/request/error telemetry into
// the metric store. Downstream calls go through the callee's proxy, so
// every hop is subject to the experiment routing.
type HTTPApplication struct {
	app       *Application
	table     *router.Table
	store     *metrics.Store
	traces    *tracing.LiveCollector
	faults    *Injector
	telemetry MetricSink
	spans     SpanSink

	mu  sync.Mutex
	rng *rand.Rand

	proxies  map[string]*router.Proxy // service -> proxy
	servers  []*http.Server
	closers  []func()
	frontURL map[string]string // service -> proxy base URL

	latencyScale float64
}

// HTTPConfig parameterizes StartHTTP.
type HTTPConfig struct {
	// LatencyScale multiplies endpoint latencies (e.g. 0.1 runs a 20 ms
	// endpoint in 2 ms). Default 1.
	LatencyScale float64
	// Seed drives latency sampling and error injection.
	Seed int64
	// Traces, when set, receives one span per backend invocation: the
	// backends join the trace identity the routing proxies stamp on
	// requests (X-Trace-ID / X-Parent-Span) and self-report spans the
	// same way they self-report metrics. Dark-launch mirror traffic is
	// excluded, matching the in-process Sim.
	Traces *tracing.LiveCollector
	// Faults, when set, is consulted on every backend invocation: the
	// same scheduled chaos the in-process Sim injects, applied to real
	// HTTP backends (latency added to the slept service time, forced
	// 500s, 503 blackouts).
	Faults *Injector
	// Telemetry, when set, replaces the direct store recording: each
	// backend hands its per-request metric batch to the sink instead of
	// the store. A wire.Client satisfies it, turning the shop's
	// self-reported telemetry into binary batch frames posted to a
	// contexpd ingestion endpoint (which lands them in the same store,
	// over the wire).
	Telemetry MetricSink
	// Spans, when set, receives each backend span instead of
	// Traces.Record. Traces is still required for trace participation —
	// it mints the span IDs — but delivery goes through the sink (a
	// wire.Client ships them as binary frames to POST /v1/spans).
	Spans SpanSink
}

// MetricSink receives batched metric telemetry. *metrics.Store and
// *wire.Client both satisfy it.
type MetricSink interface {
	RecordBatch(samples []metrics.Sample)
}

// SpanSink receives spans one at a time. *wire.Client satisfies it.
type SpanSink interface {
	RecordSpan(s tracing.Span)
}

// StartHTTP boots the application. The caller owns table and store and
// must Close the returned value.
func StartHTTP(app *Application, table *router.Table, store *metrics.Store, cfg HTTPConfig) (*HTTPApplication, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	scale := cfg.LatencyScale
	if scale <= 0 {
		scale = 1
	}
	h := &HTTPApplication{
		app:          app,
		table:        table,
		store:        store,
		traces:       cfg.Traces,
		faults:       cfg.Faults,
		telemetry:    cfg.Telemetry,
		spans:        cfg.Spans,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		proxies:      make(map[string]*router.Proxy),
		frontURL:     make(map[string]string),
		latencyScale: scale,
	}

	// Proxies first, so backends can resolve downstream URLs.
	for _, svc := range app.Services() {
		proxy := router.NewProxy(svc, table)
		url, err := h.serve(proxy)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.proxies[svc] = proxy
		h.frontURL[svc] = url
		h.closers = append(h.closers, proxy.Close)
	}
	// One backend server per service version.
	for _, svc := range app.Services() {
		for _, ver := range app.Versions(svc) {
			sv, err := app.Lookup(svc, ver)
			if err != nil {
				h.Close()
				return nil, err
			}
			url, err := h.serve(h.backendHandler(sv))
			if err != nil {
				h.Close()
				return nil, err
			}
			if err := h.proxies[svc].RegisterUpstream(ver, url); err != nil {
				h.Close()
				return nil, err
			}
		}
	}
	return h, nil
}

// EntryURL returns the URL of the entry service's proxy plus the entry
// endpoint path.
func (h *HTTPApplication) EntryURL() string {
	_, path := splitEndpoint(h.app.EntryEndpoint)
	return h.frontURL[h.app.EntryService] + path
}

// MirrorDrops sums the dark-launch mirror jobs every proxy dropped
// because its mirror queue was full.
func (h *HTTPApplication) MirrorDrops() uint64 {
	var total uint64
	for _, p := range h.proxies {
		total += p.MirrorDrops()
	}
	return total
}

// Close shuts every server and proxy down.
func (h *HTTPApplication) Close() {
	for _, srv := range h.servers {
		_ = srv.Close()
	}
	for _, c := range h.closers {
		c()
	}
}

// serve starts an HTTP server on a random loopback port and returns its
// base URL.
func (h *HTTPApplication) serve(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("microsim: listen: %w", err)
	}
	srv := &http.Server{Handler: handler}
	h.servers = append(h.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// backendHandler implements one service version: it dispatches on
// method+path, sleeps the sampled latency, issues downstream calls
// through the callees' proxies, and self-reports telemetry.
func (h *HTTPApplication) backendHandler(sv *ServiceVersion) http.Handler {
	type route struct {
		ep *Endpoint
		// key is "METHOD /path", the routes key and the span's Endpoint:
		// one string for every span, not one built per request.
		key  string
		name string
	}
	routes := make(map[string]route, len(sv.Endpoints)) // path -> route
	for name, ep := range sv.Endpoints {
		method, path := splitEndpoint(name)
		key := method + " " + path
		routes[key] = route{ep: ep, key: key, name: name}
	}
	client := &http.Client{Timeout: 30 * time.Second}

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt, ok := routes[r.Method+" "+r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		start := time.Now()
		ep := rt.ep
		dark := r.Header.Get("X-Dark-Launch") == "true"

		// Join the trace the routing proxy stamped on the request: the
		// trace ID is inherited, the span ID is this invocation's own,
		// and the parent is the calling backend's span. Dark-launch
		// mirror traffic stays out of traces (matching Sim), so the
		// user-visible trace is not broken by shadow spans.
		var traceID tracing.TraceID
		var spanID, parentID tracing.SpanID
		if h.traces != nil && !dark {
			if v, err := strconv.ParseUint(r.Header.Get(router.HeaderTraceID), 16, 64); err == nil {
				traceID = tracing.TraceID(v)
			}
			if v, err := strconv.ParseUint(r.Header.Get(router.HeaderParentSpan), 16, 64); err == nil {
				parentID = tracing.SpanID(v)
			}
			if traceID != 0 {
				spanID = h.traces.NextSpanID()
			}
		}

		h.mu.Lock()
		ownMs := ep.Latency.Sample(h.rng) * h.latencyScale
		failed := h.rng.Float64() < ep.ErrorRate
		gates := make([]bool, len(ep.Calls))
		for i, c := range ep.Calls {
			gates[i] = c.Probability >= 1 || h.rng.Float64() < c.Probability
		}
		h.mu.Unlock()

		// Injected faults distort this invocation before it sleeps or
		// fans out; a blackout fails fast and skips downstream calls.
		perturb := Perturbation{LatencyFactor: 1}
		if h.faults != nil {
			perturb = h.faults.Apply(sv.Service, sv.Version, rt.name, time.Now())
		}
		if perturb.Unavailable {
			failed = true
			ownMs = 0
		} else {
			if perturb.LatencyFactor > 0 && perturb.LatencyFactor != 1 {
				ownMs *= perturb.LatencyFactor
			}
			ownMs += float64(perturb.ExtraLatency) / float64(time.Millisecond) * h.latencyScale
			if perturb.ForceError {
				failed = true
			}
		}

		time.Sleep(time.Duration(ownMs * float64(time.Millisecond)))

		for i, call := range ep.Calls {
			if !gates[i] {
				continue
			}
			if perturb.Unavailable {
				break
			}
			method, path := splitEndpoint(call.Endpoint)
			req, err := http.NewRequestWithContext(r.Context(), method, h.frontURL[call.Service]+path, nil)
			if err != nil {
				failed = true
				continue
			}
			// Propagate the routing identity so sticky assignment holds
			// across the whole call tree, the trace identity so spans
			// assemble end to end, and the dark-launch marker so a
			// mirrored request's entire subtree stays shadow traffic.
			for _, header := range []string{"X-User-ID", "X-User-Groups", router.HeaderTraceID, "X-Dark-Launch"} {
				if v := r.Header.Get(header); v != "" {
					req.Header.Set(header, v)
				}
			}
			if spanID != 0 {
				req.Header.Set(router.HeaderParentSpan, strconv.FormatUint(uint64(spanID), 16))
			}
			resp, err := client.Do(req)
			if err != nil {
				failed = true
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				failed = true
			}
		}

		variant := ""
		if dark {
			variant = "dark"
		}
		scope := metrics.Scope{Service: sv.Service, Version: sv.Version, Variant: variant}
		now := time.Now()
		elapsedMs := float64(time.Since(start)) / float64(time.Millisecond)
		if h.store != nil || h.telemetry != nil {
			// Self-report the request's telemetry as one batch.
			batch := [3]metrics.Sample{
				{Metric: MetricResponseTime, Scope: scope, At: now, Value: elapsedMs},
				{Metric: MetricRequests, Scope: scope, At: now, Value: 1},
				{Metric: MetricErrors, Scope: scope, At: now, Value: 1},
			}
			n := 2
			if failed {
				n = 3
			}
			if h.telemetry != nil {
				h.telemetry.RecordBatch(batch[:n])
			} else {
				h.store.RecordBatch(batch[:n])
			}
		}
		if spanID != 0 {
			span := tracing.Span{
				TraceID:  traceID,
				SpanID:   spanID,
				ParentID: parentID,
				Service:  sv.Service,
				Version:  sv.Version,
				Endpoint: rt.key,
				Start:    start,
				Duration: time.Since(start),
				Err:      failed,
			}
			if h.spans != nil {
				h.spans.RecordSpan(span)
			} else {
				h.traces.Record(span)
			}
		}
		w.Header().Set("X-Version", sv.Version)
		if perturb.Unavailable {
			http.Error(w, "injected blackout", http.StatusServiceUnavailable)
			return
		}
		if failed {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%s@%s %s ok", sv.Service, sv.Version, r.URL.Path)
	})
}

// splitEndpoint splits "GET /products" into method and path. Endpoints
// without a method default to GET; paths get a leading slash.
func splitEndpoint(name string) (method, path string) {
	parts := strings.SplitN(name, " ", 2)
	if len(parts) == 2 {
		method, path = parts[0], parts[1]
	} else {
		method, path = http.MethodGet, parts[0]
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return method, path
}
