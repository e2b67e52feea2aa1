package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/journal"
	"contexp/internal/metrics"
)

// This file holds the measuring devices the harness puts around the
// layers' public APIs. Nothing here reaches inside a layer: a handler
// is timed as an http.Handler, the store as a bifrost.Querier, the
// write-ahead log as a journal.Journal.

// spanHeader carries the id of the span that caused an HTTP request, so
// a handler in the same process can name its parent.
const spanHeader = "X-Bench-Span"

// opRef names the span that work started now belongs to: the root span
// of the one operation a closed-loop generator has in flight.
type opRef struct{ span atomic.Int32 }

func newOpRef() *opRef {
	r := &opRef{}
	r.span.Store(noSpan)
	return r
}

// parentFromHeader reads the causing span from spanHeader.
func parentFromHeader(r *http.Request) int32 {
	id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
	if err != nil {
		return noSpan
	}
	return int32(id)
}

// spanHandler records one span per request served by next and counts
// the statuses it answered with. Requests with no causing span (an
// agent's heartbeat, say) are served unrecorded.
type spanHandler struct {
	next        http.Handler
	tr          *tracer
	name, layer string
	parent      func(*http.Request) int32

	non2xx       atomic.Uint64
	unauthorized atomic.Uint64
	throttled    atomic.Uint64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	id := noSpan
	if h.tr.enabled() {
		if p := h.parent(r); p >= 0 {
			id = h.tr.begin(h.name, h.layer, 0, p)
			r.Header.Set(spanHeader, strconv.Itoa(int(id)))
		}
	}
	h.next.ServeHTTP(sw, r)
	h.tr.end(id)
	switch {
	case sw.status == http.StatusUnauthorized:
		h.unauthorized.Add(1)
	case sw.status == http.StatusTooManyRequests:
		h.throttled.Add(1)
	}
	if sw.status < 200 || sw.status > 299 {
		h.non2xx.Add(1)
	}
}

// statusWriter remembers the response status; it forwards Flush so the
// routing watch stream keeps streaming through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// spanQuerier is the bifrost.Querier handed to the engine in a traced
// run: every store query becomes a span under the operation in flight.
type spanQuerier struct {
	inner bifrost.Querier
	tr    *tracer
	op    *opRef

	queries atomic.Int64
	errs    atomic.Int64
}

func (q *spanQuerier) Query(metric string, scope metrics.Scope, since time.Time, agg metrics.Aggregation) (float64, error) {
	id := noSpan
	if p := q.op.span.Load(); p >= 0 && q.tr.enabled() {
		name := "metrics.query_aggregate"
		if agg == metrics.AggMedian || agg == metrics.AggP95 || agg == metrics.AggP99 {
			name = "metrics.query_quantile"
		}
		id = q.tr.begin(name, "metrics", 0, p)
	}
	v, err := q.inner.Query(metric, scope, since, agg)
	q.tr.end(id)
	q.queries.Add(1)
	if err != nil {
		q.errs.Add(1)
	}
	return v, err
}

// watchedJournal is the journal.Journal handed to the engine: it counts
// appends (untraced runs too — the count is how eval_ladder learns a
// tick's last verdict is journaled without polling), and in a traced
// run records a span per append. Replay, Sync and Close go to the
// embedded journal untouched.
type watchedJournal struct {
	journal.Journal
	tr *tracer
	op *opRef

	appends atomic.Int64
	bytes   atomic.Int64
	errs    atomic.Int64

	// wake receives once when appends reaches wakeAt.
	wakeAt atomic.Int64
	wake   chan struct{}
	// onAppend, when set, sees every record after it is appended.
	onAppend func(rec []byte)
}

func newWatchedJournal(inner journal.Journal, tr *tracer, op *opRef) *watchedJournal {
	return &watchedJournal{Journal: inner, tr: tr, op: op, wake: make(chan struct{}, 1)}
}

func (j *watchedJournal) Append(rec []byte) error {
	id := noSpan
	if p := j.op.span.Load(); p >= 0 && j.tr.enabled() {
		id = j.tr.begin("journal.append", "journal", 0, p)
	}
	err := j.Journal.Append(rec)
	j.tr.end(id)
	if err != nil {
		j.errs.Add(1)
	}
	j.bytes.Add(int64(len(rec)))
	if j.onAppend != nil {
		j.onAppend(rec)
	}
	if j.appends.Add(1) == j.wakeAt.Load() {
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}
	return err
}
