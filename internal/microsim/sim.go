package microsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

// Sim executes user requests against an Application in-process. Version
// selection is delegated to a router.Table, exactly as in the real
// deployment: the simulation sees the same routing decisions Bifrost
// makes, which is what lets the evaluation harnesses exercise the full
// planning→execution→analysis loop without a cloud testbed.
//
// Sim is safe for concurrent use.
type Sim struct {
	app    *Application
	table  *router.Table
	traces *tracing.LiveCollector
	store  *metrics.Store
	faults *Injector

	mu  sync.Mutex
	rng *rand.Rand
}

// MetricResponseTime is the response-time metric name recorded per span
// (milliseconds).
const MetricResponseTime = "response_time"

// MetricErrors is the error-count metric name (1 per failed call).
const MetricErrors = "errors"

// MetricRequests is the request-count metric name (1 per call).
const MetricRequests = "requests"

// NewSim wires an application to a routing table, span sink, and metric
// store. Sink and store may be nil if unneeded.
func NewSim(app *Application, table *router.Table, traces *tracing.LiveCollector, store *metrics.Store, seed int64) *Sim {
	return &Sim{
		app:    app,
		table:  table,
		traces: traces,
		store:  store,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// SetFaults installs a fault injector consulted on every invocation
// (nil disables injection). Install before issuing traffic.
func (s *Sim) SetFaults(in *Injector) { s.faults = in }

// Result summarizes one simulated end-user request.
type Result struct {
	Duration time.Duration
	Err      bool
	Variant  tracing.Variant
	TraceID  tracing.TraceID
}

// Execute simulates one user request arriving at the application entry
// point at the given instant.
func (s *Sim) Execute(req *router.Request, at time.Time) (Result, error) {
	var tid tracing.TraceID
	if s.traces != nil {
		tid = s.traces.NextTraceID()
	}
	ex := &execution{sim: s, at: at, traceID: tid}
	dur, failed, err := ex.call(s.app.EntryService, s.app.EntryEndpoint, req, at, 0, 0)
	if err != nil {
		return Result{}, err
	}
	variant := tracing.VariantBaseline
	if ex.experimental {
		variant = tracing.VariantExperiment
	}
	for i := range ex.spans {
		ex.spans[i].Variant = variant
	}
	if s.traces != nil {
		s.traces.RecordBatch(ex.spans)
	}
	return Result{Duration: dur, Err: failed, Variant: variant, TraceID: tid}, nil
}

// execution tracks the state of one simulated request tree.
type execution struct {
	sim          *Sim
	at           time.Time
	traceID      tracing.TraceID
	spans        []tracing.Span
	experimental bool
	nextSpan     tracing.SpanID
	depth        int
}

// maxCallDepth guards against accidental topology cycles.
const maxCallDepth = 64

// failFastLatency is the service time of a call rejected by a blackout:
// the connection is refused almost immediately.
const failFastLatency = time.Millisecond

func (e *execution) call(service, endpoint string, req *router.Request, at time.Time, parent tracing.SpanID, depth int) (time.Duration, bool, error) {
	if depth > maxCallDepth {
		return 0, false, fmt.Errorf("microsim: call depth exceeds %d (topology cycle?)", maxCallDepth)
	}
	decision, err := e.sim.table.Resolve(service, req)
	if err != nil {
		return 0, false, err
	}
	if decision.Version != e.sim.app.Baseline(service) {
		e.experimental = true
	}
	dur, failed, err := e.invoke(service, decision.Version, endpoint, req, at, parent, depth, false)
	if err != nil {
		return 0, false, err
	}
	// Dark-launch mirrors execute the same request against the mirror
	// version. They do not contribute to the caller-visible duration
	// (asynchronous duplication) but they do generate spans and load —
	// the cascading-load effect Section 4.5 highlights.
	for _, m := range decision.Mirrors {
		if _, _, err := e.invoke(service, m, endpoint, req, at, parent, depth, true); err != nil {
			return 0, false, err
		}
	}
	return dur, failed, nil
}

// invoke runs one endpoint of a concrete service version.
func (e *execution) invoke(service, version, endpoint string, req *router.Request, at time.Time, parent tracing.SpanID, depth int, dark bool) (time.Duration, bool, error) {
	sv, err := e.sim.app.Lookup(service, version)
	if err != nil {
		return 0, false, err
	}
	ep := sv.Endpoints[endpoint]
	if ep == nil {
		return 0, false, fmt.Errorf("microsim: %s@%s has no endpoint %q", service, version, endpoint)
	}

	e.sim.mu.Lock()
	own := latencySample(ep, e.sim.rng)
	failed := e.sim.rng.Float64() < ep.ErrorRate
	gates := make([]bool, len(ep.Calls))
	for i, c := range ep.Calls {
		gates[i] = c.Probability >= 1 || e.sim.rng.Float64() < c.Probability
	}
	e.nextSpan++
	spanID := e.nextSpan
	e.sim.mu.Unlock()

	// Injected faults distort the sampled behavior before downstream
	// calls fan out; a blackout fails fast and goes dark downstream.
	var unavailable bool
	if e.sim.faults != nil {
		p := e.sim.faults.Apply(service, version, endpoint, at)
		if p.Unavailable {
			unavailable = true
			failed = true
			own = failFastLatency
		} else {
			if p.LatencyFactor > 0 && p.LatencyFactor != 1 {
				own = time.Duration(float64(own) * p.LatencyFactor)
			}
			own += p.ExtraLatency
			if p.ForceError {
				failed = true
			}
		}
	}

	total := own
	childAt := at.Add(own)
	if !unavailable {
		for i, c := range ep.Calls {
			if !gates[i] {
				continue
			}
			cdur, cfailed, err := e.call(c.Service, c.Endpoint, req, childAt, spanID, depth+1)
			if err != nil {
				return 0, false, err
			}
			total += cdur
			childAt = childAt.Add(cdur)
			if cfailed {
				failed = true
			}
		}
	}

	variantTag := ""
	if dark {
		variantTag = "dark"
	}
	scope := metrics.Scope{Service: service, Version: version, Variant: variantTag}
	if e.sim.store != nil {
		// One batched write per invocation: the store acquires each
		// series lock once instead of once per metric.
		ms := float64(total) / float64(time.Millisecond)
		batch := [3]metrics.Sample{
			{Metric: MetricResponseTime, Scope: scope, At: at, Value: ms},
			{Metric: MetricRequests, Scope: scope, At: at, Value: 1},
			{Metric: MetricErrors, Scope: scope, At: at, Value: 1},
		}
		n := 2
		if failed {
			n = 3
		}
		e.sim.store.RecordBatch(batch[:n])
	}
	if !dark {
		// Dark spans are excluded from traces: the tracing backend only
		// sees user-visible interactions, mirroring how shadow traffic
		// is filtered out of trace-based analyses.
		e.spans = append(e.spans, tracing.Span{
			TraceID:  e.traceID,
			SpanID:   spanID,
			ParentID: parent,
			Service:  service,
			Version:  version,
			Endpoint: endpoint,
			Start:    at,
			Duration: total,
			Err:      failed,
		})
	}
	return total, failed, nil
}

// InstallBaselineRoutes populates the routing table with a 100%-to-
// baseline route for every service of the application. Experiments then
// adjust individual services.
func InstallBaselineRoutes(app *Application, table *router.Table) error {
	for _, svc := range app.Services() {
		base := app.Baseline(svc)
		if err := table.Set(router.Route{
			Service:  svc,
			Backends: []router.Backend{{Version: base, Weight: 1}},
		}); err != nil {
			return err
		}
	}
	return nil
}
