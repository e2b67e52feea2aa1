// Package microsim is the microservice-application substrate that stands
// in for the paper's case-study application (Fig 4.5) and for the
// service ecosystems of the Chapter 5 scenarios. An Application declares
// services, versions, endpoints, latency distributions, error rates, and
// downstream calls; a Sim executes user requests against it in-process,
// resolving versions through a router.Table, emitting spans into a
// tracing.LiveCollector and observations into a metrics.Store.
//
// Two execution modes share one topology:
//
//   - Sim runs requests in-process on a virtual clock: deterministic
//     (seeded), no I/O, fast enough to drive the paper's evaluations at
//     full scale in milliseconds of wall time.
//   - HTTPApplication (StartHTTP) deploys the same Application as real
//     net/http servers on loopback — one backend per service version
//     behind one router.Proxy per service — for the wire-level overhead
//     measurements of Section 4.5.1 and for cmd/contexp-demo.
//     Endpoint latencies are slept for real (scaled by LatencyScale),
//     and each backend self-reports response_time/requests/errors
//     telemetry into the store, exactly like an instrumented service.
//
// In both modes every hop resolves its callee version through the
// routing table, so a Bifrost strategy rerouting traffic mid-run
// affects the whole call tree, sticky per user. ShopApplication builds
// the ten-service case-study shop (with the two-version recommendation
// service whose release drives the running example);
// InstallBaselineRoutes points every service at its stable version as
// a starting state.
package microsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"contexp/internal/stats"
)

// Call declares a downstream interaction of an endpoint.
type Call struct {
	// Service and Endpoint name the callee. The callee version is
	// resolved at request time through the routing table.
	Service  string
	Endpoint string
	// Probability in (0,1] gates the call per request (1 = always).
	Probability float64
}

// Endpoint models one operation of a service version.
type Endpoint struct {
	// Name is the operation, e.g. "GET /products".
	Name string
	// Latency is the endpoint's own processing time (excluding
	// downstream calls).
	Latency stats.LogNormal
	// ErrorRate is the probability a call fails locally.
	ErrorRate float64
	// Calls are issued sequentially; the endpoint's total duration is
	// its own latency plus the callees' durations.
	Calls []Call
}

// ServiceVersion is one deployable unit: a service at a version.
type ServiceVersion struct {
	Service   string
	Version   string
	Endpoints map[string]*Endpoint
}

// Application is a static topology of service versions.
type Application struct {
	versions map[string]map[string]*ServiceVersion // service -> version
	baseline map[string]string                     // service -> baseline version
	// Entry is the user-facing service/endpoint requests arrive at.
	EntryService  string
	EntryEndpoint string
}

// NewApplication creates an empty application.
func NewApplication(entryService, entryEndpoint string) *Application {
	return &Application{
		versions:      make(map[string]map[string]*ServiceVersion),
		baseline:      make(map[string]string),
		EntryService:  entryService,
		EntryEndpoint: entryEndpoint,
	}
}

// ServiceBuilder incrementally defines a service version.
type ServiceBuilder struct {
	app  *Application
	sv   *ServiceVersion
	last string // most recently declared endpoint
	err  error
}

// AddService registers a service version and returns a builder for its
// endpoints. The first version added for a service becomes its
// baseline.
func (a *Application) AddService(service, version string) *ServiceBuilder {
	if a.versions[service] == nil {
		a.versions[service] = make(map[string]*ServiceVersion)
		a.baseline[service] = version
	}
	sv := &ServiceVersion{Service: service, Version: version, Endpoints: make(map[string]*Endpoint)}
	b := &ServiceBuilder{app: a, sv: sv}
	if _, dup := a.versions[service][version]; dup {
		b.err = fmt.Errorf("microsim: duplicate %s@%s", service, version)
		return b
	}
	a.versions[service][version] = sv
	return b
}

// Endpoint declares an endpoint with a latency distribution calibrated
// from its mean and 95th percentile (both in milliseconds).
func (b *ServiceBuilder) Endpoint(name string, meanMs, p95Ms float64) *ServiceBuilder {
	if b.err != nil {
		return b
	}
	if _, dup := b.sv.Endpoints[name]; dup {
		b.err = fmt.Errorf("microsim: duplicate endpoint %s on %s@%s", name, b.sv.Service, b.sv.Version)
		return b
	}
	b.sv.Endpoints[name] = &Endpoint{
		Name:    name,
		Latency: stats.LogNormalFromMeanP95(meanMs, p95Ms),
	}
	b.last = name
	return b
}

// ErrorRate sets the local failure probability of the most recently
// declared endpoint.
func (b *ServiceBuilder) ErrorRate(rate float64) *ServiceBuilder {
	if b.err != nil {
		return b
	}
	ep, err := b.current()
	if err != nil {
		b.err = err
		return b
	}
	if rate < 0 || rate > 1 {
		b.err = fmt.Errorf("microsim: error rate %v outside [0,1]", rate)
		return b
	}
	ep.ErrorRate = rate
	return b
}

// Calls appends an always-taken downstream call to the most recently
// declared endpoint.
func (b *ServiceBuilder) Calls(service, endpoint string) *ServiceBuilder {
	return b.CallsWithProbability(service, endpoint, 1)
}

// CallsWithProbability appends a probabilistic downstream call.
func (b *ServiceBuilder) CallsWithProbability(service, endpoint string, p float64) *ServiceBuilder {
	if b.err != nil {
		return b
	}
	ep, err := b.current()
	if err != nil {
		b.err = err
		return b
	}
	if p <= 0 || p > 1 {
		b.err = fmt.Errorf("microsim: call probability %v outside (0,1]", p)
		return b
	}
	ep.Calls = append(ep.Calls, Call{Service: service, Endpoint: endpoint, Probability: p})
	return b
}

// Err returns the first error encountered while building.
func (b *ServiceBuilder) Err() error { return b.err }

func (b *ServiceBuilder) current() (*Endpoint, error) {
	if b.last == "" {
		return nil, fmt.Errorf("microsim: no endpoint declared yet on %s@%s", b.sv.Service, b.sv.Version)
	}
	return b.sv.Endpoints[b.last], nil
}

// Baseline returns the baseline version of service ("" when unknown).
func (a *Application) Baseline(service string) string { return a.baseline[service] }

// Lookup returns the definition of service@version.
func (a *Application) Lookup(service, version string) (*ServiceVersion, error) {
	vs := a.versions[service]
	if vs == nil {
		return nil, fmt.Errorf("microsim: unknown service %q", service)
	}
	sv := vs[version]
	if sv == nil {
		return nil, fmt.Errorf("microsim: unknown version %s@%s", service, version)
	}
	return sv, nil
}

// Services returns all service names, sorted.
func (a *Application) Services() []string {
	out := make([]string, 0, len(a.versions))
	for s := range a.versions {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Versions returns the versions of a service, sorted.
func (a *Application) Versions(service string) []string {
	vs := a.versions[service]
	out := make([]string, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Validate checks that every declared downstream call has at least one
// version of the callee exposing the endpoint, and that the entry point
// exists.
func (a *Application) Validate() error {
	if _, err := a.Lookup(a.EntryService, a.baseline[a.EntryService]); err != nil {
		return fmt.Errorf("microsim: invalid entry: %w", err)
	}
	entry, _ := a.Lookup(a.EntryService, a.baseline[a.EntryService])
	if entry.Endpoints[a.EntryEndpoint] == nil {
		return fmt.Errorf("microsim: entry endpoint %q missing on %s@%s",
			a.EntryEndpoint, a.EntryService, a.baseline[a.EntryService])
	}
	for svc, versions := range a.versions {
		for ver, sv := range versions {
			for _, ep := range sv.Endpoints {
				for _, c := range ep.Calls {
					callee := a.versions[c.Service]
					if callee == nil {
						return fmt.Errorf("microsim: %s@%s %s calls unknown service %q",
							svc, ver, ep.Name, c.Service)
					}
					found := false
					for _, cv := range callee {
						if cv.Endpoints[c.Endpoint] != nil {
							found = true
							break
						}
					}
					if !found {
						return fmt.Errorf("microsim: %s@%s %s calls unknown endpoint %s:%s",
							svc, ver, ep.Name, c.Service, c.Endpoint)
					}
				}
			}
		}
	}
	return nil
}

// latencySample draws a latency in time units from an endpoint.
func latencySample(ep *Endpoint, rng *rand.Rand) time.Duration {
	ms := ep.Latency.Sample(rng)
	return time.Duration(ms * float64(time.Millisecond))
}
