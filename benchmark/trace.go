package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation (a proxied request, a flush, a tick, a cycle) share Op;
// Parent is the span that caused this one, -1 for the operation's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // nanoseconds since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noSpan is the id of a span that was not recorded.
const noSpan int32 = -1

// tracer keeps spans in memory until the run ends. It records only
// while on; a nil tracer never records, so untraced runs pay nothing
// and the wrappers of a traced run pay one atomic load while it is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span now; parent noSpan makes it the root of op.
func (t *tracer) begin(name, layer string, op uint64, parent int32) int32 {
	if !t.enabled() {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span from two instants observed elsewhere.
func (t *tracer) add(name, layer string, op uint64, parent int32, start, end time.Time) int32 {
	if !t.enabled() {
		return noSpan
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
	return id
}

// snapshot returns the recorded spans; call once recording has stopped.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// coveredWithin returns how much of [lo, hi) the intervals cover,
// counting overlapping intervals once.
func coveredWithin(lo, hi int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var covered int64
	at := lo
	for _, iv := range intervals {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			covered += e - s
			at = e
		}
	}
	return covered
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (parallel children count
// once, a child outliving its parent counts only while the parent ran).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredWithin(s.Start, s.End, children[s.ID])
	}
	return self
}

// spanStats are the per-name reductions the per-layer metrics read.
type spanStats struct {
	durUS  map[string][]float64 // span durations by name, microseconds
	selfUS map[string][]float64 // span self times by name, microseconds
	// rootSelfShare is, per operation and by root span name, the root's
	// self time over its duration: the part of the operation no span
	// below the root covers (generator, client and loopback time, and
	// any gap between hops). Self times partition a span, so the layers
	// below account for the rest.
	rootSelfShare map[string][]float64
	ops           int
}

func analyze(spans []span) spanStats {
	st := spanStats{durUS: make(map[string][]float64), selfUS: make(map[string][]float64),
		rootSelfShare: make(map[string][]float64)}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		st.durUS[s.Name] = append(st.durUS[s.Name], float64(s.dur())/1e3)
		st.selfUS[s.Name] = append(st.selfUS[s.Name], float64(self)/1e3)
		if s.Parent < 0 {
			st.ops++
			st.rootSelfShare[s.Name] = append(st.rootSelfShare[s.Name], ratio(float64(self), float64(s.dur())))
		}
	}
	return st
}

// The span file holds whole operations, the first ones traced, until
// either cap is reached; the per-layer metrics are derived from every
// span recorded.
const (
	traceFileOps   = 2000
	traceFileSpans = 200_000
)

// writeTrace writes the leading operations' spans to
// benchmark/out/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	seen := make(map[uint64]bool)
	var kept []span
	for _, s := range spans {
		if !seen[s.Op] {
			if len(seen) == traceFileOps || len(kept) >= traceFileSpans {
				continue
			}
			seen[s.Op] = true
		}
		kept = append(kept, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{
		"workload":    workload,
		"seed":        seed,
		"spans_total": len(spans),
		"ops_written": len(seen),
		"spans":       kept,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
