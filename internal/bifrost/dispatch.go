package bifrost

import (
	"time"

	"contexp/internal/metrics"
)

// This file is the evaluation plane, and the run goroutine is all of
// it: a run evaluates its due checks in state order at one instant,
// joins before it records anything, and never re-arms its timer
// mid-batch. The last is what keeps clock.Sim lockstep drivers (the
// scenario suite) working: while a batch is being evaluated the run has
// no pending timer, so virtual time cannot move under it. The first two
// are why the journaled trail needs no reordering — nothing is ever
// evaluated out of order.
//
// The only sharing is inside one run at one instant: a threshold ladder
// over one signal, a relative check and its sibling baseline check, the
// conclude-time re-evaluation at the end of a phase. The per-run memo
// below answers those repeats without asking the store again.

// evalBatch evaluates checks against the run's (strategy, phase) at
// now, in order, returning results positionally. Every check is
// evaluated even when an earlier one will trip the phase; the caller
// decides what to record. The engine's busy/count instrumentation is
// taken around the batch: one clock pair and one add to each shared
// counter, however many checks are due.
func (r *Run) evalBatch(p *Phase, checks []*Check, now time.Time) []CheckResult {
	results := make([]CheckResult, len(checks))
	start := time.Now()
	for i, c := range checks {
		results[i] = r.evaluateCheck(p, c, now)
	}
	r.engine.evalBusy.Add(int64(time.Since(start)))
	r.engine.evalCount.Add(int64(len(checks)))
	return results
}

// memoEntry is one store answer — value or error — the run already has
// for the instant memoAt.
type memoEntry struct {
	metric string
	scope  metrics.Scope
	since  int64 // UnixNano
	agg    metrics.Aggregation
	val    float64
	err    error
}

// query is the metric evaluator's path to the store. Identical
// (metric, scope, since, aggregation) queries at the same instant are
// asked once; an error (ErrNoData included) is remembered like a value.
//
// The memo is touched only by the run's own goroutine, so it has no
// lock, and it is emptied whenever now moves, so a later instant can
// never read an earlier instant's answer and the slice never holds more
// than one instant's distinct queries — at most two per check of the
// phase. That is why it needs no bound and why a linear scan is enough.
func (r *Run) query(metric string, scope metrics.Scope, since time.Time, agg metrics.Aggregation, now time.Time) (float64, error) {
	e := r.engine
	if !now.Equal(r.memoAt) {
		r.memoAt = now
		r.memo = r.memo[:0]
	}
	sinceNS := since.UnixNano()
	for i := range r.memo {
		m := &r.memo[i]
		if m.since == sinceNS && m.agg == agg && m.metric == metric && m.scope == scope {
			e.cacheHits.Add(1)
			return m.val, m.err
		}
	}
	e.cacheMisses.Add(1)
	val, err := e.cfg.Store.Query(metric, scope, since, agg)
	r.memo = append(r.memo, memoEntry{metric: metric, scope: scope, since: sinceNS, agg: agg, val: val, err: err})
	return val, err
}

// EvalPlaneStats is the evaluation plane's health-surface snapshot.
type EvalPlaneStats struct {
	// CacheHits counts store queries the per-run memo answered — asked
	// again by the same run at the same instant; CacheMisses counts the
	// queries that reached the store.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// InlineEvals is the evaluation count: every evaluation runs on its
	// run's own goroutine. benchmark/eval_ladder.go is its only reader
	// (bifrost.inline_share) and benchmark/ is frozen, so the field
	// stays; /healthz already reports the count as evaluations.
	InlineEvals int64 `json:"-"`
}

// EvalPlane returns the evaluation-plane counters.
func (e *Engine) EvalPlane() EvalPlaneStats {
	return EvalPlaneStats{
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
		InlineEvals: e.evalCount.Load(),
	}
}
