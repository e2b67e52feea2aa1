// Package tracing is the distributed-tracing substrate standing in for
// Zipkin/Jaeger, which Chapter 5's health assessment consumes. A Span
// records one endpoint invocation: which (service, version, endpoint)
// handled it, who called it, when, for how long, and whether it failed.
// Spans sharing a TraceID form a Trace; Traces carry a Variant tag so
// baseline and experimental user populations can be separated, which is
// what enables the topological comparison of Section 5.5.
//
// LiveCollector is the one span sink: services, the simulator and the
// POST /v1/spans API record into it, and the analysis plane takes
// settled traces out of it with Harvest.
package tracing

import (
	"fmt"
	"time"
)

// Variant labels which experiment population a trace belongs to.
type Variant string

// Conventional variant labels used throughout the framework.
const (
	VariantBaseline   Variant = "baseline"
	VariantExperiment Variant = "experiment"
)

// SpanID identifies a span within a trace.
type SpanID uint64

// TraceID identifies an end-to-end user interaction.
type TraceID uint64

// Span is one endpoint invocation, modeled on the Zipkin/Jaeger span
// fields the paper's prototype extracts.
type Span struct {
	TraceID  TraceID       `json:"traceId"`
	SpanID   SpanID        `json:"id"`
	ParentID SpanID        `json:"parentId,omitempty"` // 0 for root spans
	Service  string        `json:"localEndpoint"`
	Version  string        `json:"version"`
	Endpoint string        `json:"name"` // e.g. "GET /products/{id}"
	Start    time.Time     `json:"timestamp"`
	Duration time.Duration `json:"duration"`
	Err      bool          `json:"error,omitempty"`
	Variant  Variant       `json:"variant,omitempty"`
}

// Node returns the topology node key of the span: the (service, version,
// endpoint) triple Chapter 5 compares at.
func (s Span) Node() NodeKey {
	return NodeKey{Service: s.Service, Version: s.Version, Endpoint: s.Endpoint}
}

// NodeKey identifies an endpoint of a service in a specific version.
type NodeKey struct {
	Service  string
	Version  string
	Endpoint string
}

// String renders service@version:endpoint.
func (k NodeKey) String() string {
	return k.Service + "@" + k.Version + ":" + k.Endpoint
}

// Trace is the tree of spans of one user interaction.
type Trace struct {
	ID      TraceID
	Variant Variant
	Spans   []Span
}

// Root returns the root span (ParentID == 0) and true, or a zero Span and
// false when the trace is empty or broken.
func (t *Trace) Root() (Span, bool) {
	for _, s := range t.Spans {
		if s.ParentID == 0 {
			return s, true
		}
	}
	return Span{}, false
}

// Duration returns the root span's duration, the end-user-visible latency.
func (t *Trace) Duration() time.Duration {
	if root, ok := t.Root(); ok {
		return root.Duration
	}
	return 0
}

// Validate checks structural integrity of a trace: exactly one root, all
// parents resolvable, children within the parent's time range is NOT
// required (clock skew exists in real systems), no duplicate span IDs.
func (t *Trace) Validate() error {
	if len(t.Spans) == 0 {
		return fmt.Errorf("tracing: trace %d has no spans", t.ID)
	}
	seen := make(map[SpanID]bool, len(t.Spans))
	var roots int
	for _, s := range t.Spans {
		if seen[s.SpanID] {
			return fmt.Errorf("tracing: trace %d has duplicate span %d", t.ID, s.SpanID)
		}
		seen[s.SpanID] = true
		if s.ParentID == 0 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("tracing: trace %d has %d roots, want 1", t.ID, roots)
	}
	for _, s := range t.Spans {
		if s.ParentID != 0 && !seen[s.ParentID] {
			return fmt.Errorf("tracing: trace %d span %d has unknown parent %d", t.ID, s.SpanID, s.ParentID)
		}
	}
	return nil
}
