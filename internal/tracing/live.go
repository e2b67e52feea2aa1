package tracing

import (
	"sync"
	"sync/atomic"
	"time"
)

// LiveCollector is the span sink, the in-memory stand-in for a
// Zipkin/Jaeger backend. It accepts spans from concurrently running
// services (in-process backends, the simulator, or the batched
// POST /v1/spans API), shards them by trace to keep ingestion scalable,
// enforces a hard span cap so a traffic burst cannot exhaust memory
// (dropped spans are counted, like router.Proxy.MirrorDrops), and hands
// settled traces over to the analysis plane exactly once via Harvest —
// which is what makes incremental interaction-graph building possible:
// each harvested trace is folded into the per-run topology graphs and
// its spans are released.
type LiveCollector struct {
	cap    int
	spans  atomic.Int64
	drops  atomic.Uint64
	nextID atomic.Uint64
	// harvested counts traces handed to the analysis plane.
	harvested atomic.Int64

	shards [liveShards]liveShard

	// harvestMu serializes harvesters and guards scratch, the Trace
	// slice Harvest reuses across calls so the periodic poll loop is
	// allocation-free at steady state.
	harvestMu sync.Mutex
	scratch   []Trace
}

const liveShards = 16

type liveShard struct {
	mu     sync.Mutex
	traces map[TraceID]*liveTrace
}

// liveTrace buffers the spans of one in-flight trace.
type liveTrace struct {
	spans []Span
	// last is the wall-clock arrival time of the newest span: a trace is
	// settled (harvestable) once no span has arrived for the settle
	// window.
	last time.Time
}

// NewLiveCollector creates a collector bounding buffered spans to cap
// (cap <= 0 means unbounded).
func NewLiveCollector(cap int) *LiveCollector {
	c := &LiveCollector{cap: cap}
	for i := range c.shards {
		c.shards[i].traces = make(map[TraceID]*liveTrace)
	}
	return c
}

// Cap returns the configured span cap (0 = unbounded).
func (c *LiveCollector) Cap() int { return c.cap }

// NextTraceID allocates a fresh trace identifier.
func (c *LiveCollector) NextTraceID() TraceID { return TraceID(c.nextID.Add(1)) }

// NextSpanID allocates a fresh span identifier.
func (c *LiveCollector) NextSpanID() SpanID { return SpanID(c.nextID.Add(1)) }

func (c *LiveCollector) shard(id TraceID) *liveShard {
	return &c.shards[uint64(id)%liveShards]
}

// Record buffers one finished span. It returns false when the span was
// dropped because the collector is at its cap; the drop is counted.
func (c *LiveCollector) Record(s Span) bool {
	if s.TraceID == 0 {
		c.drops.Add(1)
		return false
	}
	if c.cap > 0 && c.spans.Load() >= int64(c.cap) {
		c.drops.Add(1)
		return false
	}
	c.spans.Add(1)
	sh := c.shard(s.TraceID)
	sh.mu.Lock()
	tr := sh.traces[s.TraceID]
	if tr == nil {
		tr = &liveTrace{}
		sh.traces[s.TraceID] = tr
	}
	tr.spans = append(tr.spans, s)
	tr.last = time.Now()
	sh.mu.Unlock()
	return true
}

// RecordBatch buffers a batch of spans and returns how many were
// accepted (the rest were dropped against the cap and counted).
func (c *LiveCollector) RecordBatch(spans []Span) int {
	accepted := 0
	for _, s := range spans {
		if c.Record(s) {
			accepted++
		}
	}
	return accepted
}

// Harvest removes and returns every trace whose newest span is at least
// `settle` old: no span arrived within the settle window, so the trace
// is taken as complete. A settle of 0 harvests everything buffered.
// Harvested traces are gone from the collector — each trace is handed
// to the analysis plane exactly once. Spans arriving for an already
// harvested trace start a new partial trace, which trace validation in
// the graph builder later rejects.
//
// The returned slice is owned by the collector and reused by the next
// Harvest call: consume (fold or copy) the traces before harvesting
// again. The spans inside each Trace are handed over for keeps.
func (c *LiveCollector) Harvest(settle time.Duration) []Trace {
	cutoff := time.Now().Add(-settle)
	c.harvestMu.Lock()
	out := c.scratch[:0]
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id, tr := range sh.traces {
			if tr.last.After(cutoff) {
				continue
			}
			delete(sh.traces, id)
			c.spans.Add(int64(-len(tr.spans)))
			variant := tr.spans[0].Variant
			out = append(out, Trace{ID: id, Variant: variant, Spans: tr.spans})
		}
		sh.mu.Unlock()
	}
	// Drop the span pointers past the live prefix so the scratch array
	// does not pin the previous harvest's spans until it is overwritten.
	tail := out[len(out):cap(out)]
	for i := range tail {
		tail[i] = Trace{}
	}
	c.scratch = out
	c.harvestMu.Unlock()
	c.harvested.Add(int64(len(out)))
	return out
}

// SpanCount returns the number of currently buffered spans.
func (c *LiveCollector) SpanCount() int { return int(c.spans.Load()) }

// PendingTraces returns the number of traces still buffering spans.
func (c *LiveCollector) PendingTraces() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.traces)
		sh.mu.Unlock()
	}
	return n
}

// Drops reports how many spans were discarded because the collector was
// at its cap (or carried no trace ID). A growing value means the
// topology graphs see less traffic than the services actually served.
func (c *LiveCollector) Drops() uint64 { return c.drops.Load() }

// HarvestedTraces reports how many traces were handed to the analysis
// plane over the collector's lifetime.
func (c *LiveCollector) HarvestedTraces() int64 { return c.harvested.Load() }
