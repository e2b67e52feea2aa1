// Package metrics is the in-memory telemetry substrate standing in for
// the monitoring/APM solutions (New Relic, Prometheus, Istio telemetry)
// the paper's systems depend on. Bifrost checks query it to decide phase
// transitions, and the evaluation harnesses read it to reproduce the
// response-time figures.
//
// The store answers windowed aggregate queries per (metric, scope)
// series: mean, percentiles, rate, count, min, max. A scope identifies
// which deployment produced the observation — typically service +
// version, optionally an experiment variant tag (dark-launch mirrors
// record under the "dark" variant so their telemetry never mixes with
// user-facing traffic):
//
//	store := metrics.NewStore(0)
//	scope := metrics.Scope{Service: "recommendation", Version: "v2"}
//	store.Record("response_time", scope, time.Now(), 41.3)
//	p95, err := store.Query("response_time", scope,
//	    time.Now().Add(-30*time.Second), metrics.AggP95)
//
// Query semantics Bifrost depends on: a window with no observations
// (or a series that was never written) returns ErrNoData, which the
// engine maps to an inconclusive check outcome rather than a pass or
// fail — absence of evidence never trips a rollback. Count, sum, and
// rate over an existing-but-empty window return 0 instead, since
// "nothing happened" is a real answer for those.
//
// What a series retains (ring.go): no raw observations, only streaming
// aggregates — buckets of count/sum/min/max, first/last observation
// time and a histogram sketch of log-spaced bins, a value's bin read
// from tables rather than computed with a logarithm per write — in
// three tiers of one shape:
// 1 s × 256, 1 min × 1440 (24 h) and 1 h × 336 (14 days). Each keeps its
// newest four intervals as live buckets — 288 bytes, their sketch
// counting in one byte a bin, carrying into four more once a bin passes
// 255 — and every older one packed, at ~80 bytes, in its sealed view
// (sealed.go). Every observation feeds all three, each tier accepting any
// sample still inside its own reach however late it arrives; a bucket is
// allocated only once its interval receives data. A query reduces the
// finest tier that covers its window, merging only the window's buckets,
// oldest first, and only the sketch bins each bucket occupies: it costs
// what the window holds, not the tier's size. It snaps to that tier's
// bucket width: a bucket straddling `since` contributes whole.
// Three consequences callers should know:
//
//   - Quantiles (median/p95/p99) always come from merged sketches and
//     carry their bounded relative error (√γ−1 ≈ 4.9%, see
//     docs/PERFORMANCE.md), at second, minute or hour snapping depending
//     on how far back the window starts. There is no exact-sort path.
//   - A quantile whose rank falls among values ≤ 10⁻³ (zero, negative:
//     the sketch's underflow bin) is reported somewhere inside
//     [window min, min(10⁻³, window max)]; min/max/mean/sum over such
//     values stay exact.
//   - A window older than every tier is answered from what the hour
//     tier still retains.
//
// The minute and hour tiers outlive the process as one record per series
// of their sealed buckets, sketches included (Store.Snapshot and Restore,
// which do no file I/O), so a restored store answers as the saved one did.
//
// All operations are safe for concurrent use. A series is found through
// one read-mostly index: a map that is never written once published
// behind an atomic pointer, so finding an existing series is a hash and
// loads — no lock, no write to memory another core reads. Series created
// since the last publish sit in a second map under a mutex, which is
// published in turn once as many probes have had to look there as it
// holds series (Store). A read, at any width, holds the series lock only to
// copy two slice headers and the live buckets' summaries (sealed.go):
// the window's sealed buckets — summaries and packed sketch bins — are
// merged after unlocking, from an append-only view that new intervals
// extend in place rather than copy. Memory per series is bounded by the
// tiers' reaches and grows with the series' age towards them.
package metrics

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Scope identifies the deployment a series belongs to.
type Scope struct {
	// Tenant is the canonical owning tenant ("" for the default
	// tenant). The control plane stamps it from the authenticated
	// principal at ingestion; it is never part of the telemetry wire
	// format, so tenants cannot write into each other's series.
	Tenant  string
	Service string
	Version string
	Variant string // experiment variant tag, e.g. "baseline" or "canary"; may be empty
}

// String renders the scope as [tenant:]service/version[/variant].
func (s Scope) String() string {
	out := s.Service + "/" + s.Version
	if s.Variant != "" {
		out += "/" + s.Variant
	}
	if s.Tenant != "" {
		out = s.Tenant + ":" + out
	}
	return out
}

// Aggregation selects how a window of observations is reduced to one value.
type Aggregation int

// Supported aggregations.
const (
	AggMean Aggregation = iota + 1
	AggMedian
	AggP95
	AggP99
	AggMin
	AggMax
	AggCount
	AggSum
	AggRate // observations per second over the window
)

// aggNames are the canonical spellings, by aggregation.
var aggNames = [...]string{AggMean: "mean", AggMedian: "median", AggP95: "p95", AggP99: "p99",
	AggMin: "min", AggMax: "max", AggCount: "count", AggSum: "sum", AggRate: "rate"}

// ParseAggregation converts the DSL spelling of an aggregation: the
// canonical one, any case, or avg for mean and p50 for median.
func ParseAggregation(s string) (Aggregation, error) {
	name := strings.ToLower(s)
	switch name {
	case "avg":
		name = "mean"
	case "p50":
		name = "median"
	}
	if a := slices.Index(aggNames[:], name); a > 0 {
		return Aggregation(a), nil
	}
	return 0, fmt.Errorf("metrics: unknown aggregation %q", s)
}

// String returns the canonical spelling.
func (a Aggregation) String() string {
	if a > 0 && int(a) < len(aggNames) {
		return aggNames[a]
	}
	return fmt.Sprintf("aggregation(%d)", int(a))
}

// ErrNoData is returned by queries over series or windows with no
// observations; Bifrost maps it to an inconclusive check outcome.
var ErrNoData = errors.New("metrics: no data in window")

// Tiers of a series, finest first.
const (
	tierSecond = iota
	tierMinute
	tierHour
	numTiers
)

type series struct {
	mu sync.Mutex
	// What every write reads and writes besides its buckets sits next to
	// mu, on the line a writer's lock takes.
	//
	// earliest is the unix second of the oldest observation ever
	// offered, kept or not: a tier whose reach starts at or before it
	// holds the series' whole history.
	earliest int64
	// lastWriteNs, the UnixNano of the newest observation (math.MinInt64
	// before the first), drives idle-series eviction (Store.Maintain),
	// which sets evicted before it drops the series from the index: a
	// writer that resolved the series earlier finds the mark once it holds
	// mu and writes to the series' replacement instead (Store.lockSeries).
	lastWriteNs int64
	evicted     bool

	// tiers are the three retention widths (ring.go), every one fed on
	// every write. The minute and hour tiers survive restarts via
	// Store.Snapshot.
	tiers [numTiers]tier
}

func newSeries() *series {
	return &series{
		earliest:    math.MaxInt64,
		lastWriteNs: math.MinInt64,
		tiers: [numTiers]tier{
			tierSecond: newTier(time.Second, secondSlots),
			tierMinute: newTier(time.Minute, minuteSlots),
			tierHour:   newTier(time.Hour, hourSlots),
		},
	}
}

// stamp is an observation time resolved for the write path: its unix
// second and nanosecond and the bucket index it falls in on every tier.
// A batch the server stamped on arrival carries one time on every
// sample, so RecordBatch resolves it once, not per sample per tier.
type stamp struct {
	at      time.Time
	sec, ns int64
	idx     [numTiers]int64
}

func stampOf(at time.Time) stamp {
	sec := at.Unix()
	return stamp{at: at, sec: sec, ns: at.UnixNano(), idx: [numTiers]int64{
		tierSecond: sec,
		tierMinute: sec / int64(time.Minute/time.Second),
		tierHour:   sec / int64(time.Hour/time.Second),
	}}
}

func (s *series) recordLocked(t *stamp, v float64) {
	bin := histIndex(v)
	s.earliest, s.lastWriteNs = min(s.earliest, t.sec), max(s.lastWriteNs, t.ns)
	for i := range s.tiers {
		if b := s.tiers[i].at(t.idx[i]); b != nil {
			b.add(t.ns, v, bin)
			b.tally(bin)
		} else {
			s.tiers[i].lateLocked(t.idx[i], t.ns, v)
		}
	}
}

// index is one published state of the series map. Its map is never
// written once the index is in Store.read; amended says series were
// created since, and only Store.dirty holds them.
type index struct {
	series  map[string]*series
	amended bool
}

// Store is a concurrency-safe metric store. The zero value is not usable;
// construct with NewStore.
type Store struct {
	// read is where every probe starts: an atomic load and a lookup in a
	// map nobody writes, so a probe performs no read-modify-write and no
	// store, and cores probing at once share its cache lines.
	read atomic.Pointer[index]

	// mu guards dirty and misses and orders every publish of read.
	mu sync.Mutex
	// dirty is read's series plus those created since read was
	// published, nil when there are none. It replaces read once misses —
	// probes read could not answer, taken here under mu — reach its
	// length, so the copy that made it is paid for by the probes it
	// then spares the mutex.
	dirty  map[string]*series
	misses int
}

// NewStore creates a Store. The argument is ignored: it once sized a
// per-series raw-sample ring that no longer exists, and remains only so
// existing callers keep compiling.
func NewStore(_ int) *Store {
	st := &Store{}
	st.read.Store(&index{series: make(map[string]*series)})
	return st
}

// seriesKey leads with the tenant so per-tenant accounting
// (TenantSeries) can attribute every series by splitting at the first
// NUL; the default tenant's prefix is the empty string.
func seriesKey(metric string, scope Scope) string {
	return scope.Tenant + "\x00" + metric + "\x00" + scope.Service + "\x00" + scope.Version + "\x00" + scope.Variant
}

// appendSeriesKey builds seriesKey into dst, so batched ingestion can
// probe the series map without materializing a key string per run.
func appendSeriesKey(dst []byte, metric string, scope Scope) []byte {
	dst = append(dst, scope.Tenant...)
	dst = append(dst, 0)
	dst = append(dst, metric...)
	dst = append(dst, 0)
	dst = append(dst, scope.Service...)
	dst = append(dst, 0)
	dst = append(dst, scope.Version...)
	dst = append(dst, 0)
	dst = append(dst, scope.Variant...)
	return dst
}

// keyBufPool recycles the scratch buffers RecordBatch builds series
// keys in.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// lookupBytes returns the series for the key bytes, or nil. The
// string(key) map probes do not allocate, and a key read holds is found
// with loads alone: no lock, no atomic read-modify-write, no store.
func (st *Store) lookupBytes(key []byte) *series {
	idx := st.read.Load()
	s := idx.series[string(key)]
	if s != nil || !idx.amended {
		return s
	}
	st.mu.Lock()
	if st.dirty != nil {
		s = st.dirty[string(key)]
		st.missLocked()
	} else { // published while we waited
		s = st.read.Load().series[string(key)]
	}
	st.mu.Unlock()
	return s
}

// getOrCreate returns the series for key, creating it on first write.
func (st *Store) getOrCreate(key string) *series {
	if s := st.read.Load().series[key]; s != nil {
		return s
	}
	st.mu.Lock()
	s := st.getOrCreateLocked(key)
	st.mu.Unlock()
	return s
}

// getOrCreateLocked is getOrCreate under st.mu.
func (st *Store) getOrCreateLocked(key string) *series {
	if s := st.read.Load().series[key]; s != nil {
		return s
	}
	if s := st.dirty[key]; s != nil {
		st.missLocked()
		return s
	}
	s := newSeries()
	st.addLocked(key, s)
	return s
}

// addLocked puts s in the index as key's series, which it does not hold.
// The first series added since read was published copies read into dirty;
// every later one until the next publish is one insert into dirty.
func (st *Store) addLocked(key string, s *series) {
	if st.dirty == nil {
		idx := st.read.Load()
		st.dirty = maps.Clone(idx.series)
		st.read.Store(&index{series: idx.series, amended: true})
	}
	st.dirty[key] = s
}

// missLocked counts a probe that read could not answer, and publishes
// dirty as read once those probes have cost as much as copying it.
func (st *Store) missLocked() {
	st.misses++
	if st.misses >= len(st.dirty) {
		st.publishLocked(st.dirty)
	}
}

// publishLocked makes m the map every probe reads, and m must not be
// written again. Caller holds st.mu.
func (st *Store) publishLocked(m map[string]*series) {
	st.read.Store(&index{series: m})
	st.dirty, st.misses = nil, 0
}

// published returns every series in one map that is never written,
// publishing the series created since the last publish first: walks
// read it without holding st.mu.
func (st *Store) published() map[string]*series {
	st.mu.Lock()
	if st.dirty != nil {
		st.publishLocked(st.dirty)
	}
	m := st.read.Load().series
	st.mu.Unlock()
	return m
}

// lockSeries returns the series for key, created on first use, with its
// mutex held, for a write. A series Maintain has marked evicted is about
// to leave the index, or has: a sample recorded into it would be one no
// query can reach, so the lookup is made again under st.mu, which waits
// out Maintain's publish of the index without the series and then finds
// or makes the replacement.
func (st *Store) lockSeries(key string) *series {
	s := st.getOrCreate(key)
	for {
		s.mu.Lock()
		if !s.evicted {
			return s
		}
		s.mu.Unlock()
		st.mu.Lock()
		s = st.getOrCreateLocked(key)
		st.mu.Unlock()
	}
}

// Record appends an observation to (metric, scope) at time at.
func (st *Store) Record(metric string, scope Scope, at time.Time, value float64) {
	t := stampOf(at)
	s := st.lockSeries(seriesKey(metric, scope))
	s.recordLocked(&t, value)
	s.mu.Unlock()
}

// Sample is one observation destined for (Metric, Scope); the batched
// ingestion unit of RecordBatch.
type Sample struct {
	Metric string
	Scope  Scope
	At     time.Time
	Value  float64
}

// RecordBatch records a batch of samples. Consecutive samples for the
// same series are appended under one lock acquisition, so ingestion
// paths that deliver many observations at once (HTTP ingestion, the
// simulators' per-request telemetry, load-generator flushes) amortize
// the per-call overhead of Record.
func (st *Store) RecordBatch(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	bufp := keyBufPool.Get().(*[]byte)
	buf := *bufp
	t := stampOf(samples[0].At)
	for i := 0; i < len(samples); {
		j := i + 1
		for j < len(samples) &&
			samples[j].Metric == samples[i].Metric && samples[j].Scope == samples[i].Scope {
			j++
		}
		// Probe with a pooled key buffer first: recording into existing
		// series (the steady state) allocates nothing. Only a series'
		// first-ever write materializes the key string.
		buf = appendSeriesKey(buf[:0], samples[i].Metric, samples[i].Scope)
		s := st.lookupBytes(buf)
		if s == nil {
			s = st.getOrCreate(string(buf))
		}
		s.mu.Lock()
		if s.evicted { // between the probe and the lock: rare enough to pay for the string
			s.mu.Unlock()
			s = st.lockSeries(string(buf))
		}
		for k := i; k < j; k++ {
			if samples[k].At != t.at { // the same value, not merely the same instant
				t = stampOf(samples[k].At)
			}
			s.recordLocked(&t, samples[k].Value)
		}
		s.mu.Unlock()
		i = j
	}
	*bufp = buf
	keyBufPool.Put(bufp)
}

// Query reduces the observations of (metric, scope) recorded at or after
// `since` (up to `now` semantics are the caller's: everything recorded is
// included) with the given aggregation, from the finest tier covering
// `since`. Windows snap to that tier's bucket boundaries: a bucket
// straddling `since` contributes whole. Quantiles merge the buckets'
// histogram sketches and carry their bounded relative error.
func (st *Store) Query(metric string, scope Scope, since time.Time, agg Aggregation) (float64, error) {
	// Pooled key probe (as in RecordBatch): looking up an existing
	// series allocates nothing.
	bufp := keyBufPool.Get().(*[]byte)
	buf := appendSeriesKey((*bufp)[:0], metric, scope)
	s := st.lookupBytes(buf)
	*bufp = buf
	keyBufPool.Put(bufp)
	if s == nil {
		return 0, fmt.Errorf("%w: no series %s %s", ErrNoData, metric, scope)
	}
	a := accumulator{summary: emptySummary}
	if isQuantile(agg) {
		a.hist = new([histSize]uint64) // does not escape: on the stack
	}
	s.reduce(since, &a)
	return a.value(agg)
}

// SeriesCount returns the number of distinct series in the store.
func (st *Store) SeriesCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dirty != nil {
		return len(st.dirty)
	}
	return len(st.read.Load().series)
}

// Stats is the store's self-report, summed over the three tiers of the
// series alive now. LiveBuckets counts the live buckets holding data and
// WideBuckets those of them whose sketch has outgrown a byte a bin (a bin
// passed 255 in the slot's life), SealedSeconds the packed buckets in
// the tiers' views (minutes and hours too: the name is older than their
// views). A write older than a tier's live buckets is late for that
// tier: LateWrites were buffered and folded into its view by LateFolds
// folds, LateDropped were older than it reaches, and fed only the
// coarser tiers.
type Stats struct {
	Series        int    `json:"series"`
	LiveBuckets   int    `json:"liveBuckets"`
	WideBuckets   int    `json:"wideBuckets"`
	SealedSeconds int    `json:"sealedSeconds"`
	LateWrites    uint64 `json:"lateWrites"`
	LateFolds     uint64 `json:"lateFolds"`
	LateDropped   uint64 `json:"lateDropped"`
}

// Stats walks every series under its lock: for a status page, not a hot path.
func (st *Store) Stats() Stats {
	var out Stats
	for _, s := range st.published() {
		s.mu.Lock()
		out.Series++
		for t := range s.tiers {
			r := &s.tiers[t]
			r.walk(r.oldest(), r.latest, func(b *bucket) {
				out.LiveBuckets++
				if b.high != nil {
					out.WideBuckets++
				}
			})
			out.SealedSeconds += len(r.sealed.buckets)
			out.LateWrites += r.lateWrites
			out.LateFolds += r.lateFolds
			out.LateDropped += r.lateDropped
		}
		s.mu.Unlock()
	}
	return out
}

// Reset drops all series.
func (st *Store) Reset() {
	st.mu.Lock()
	st.publishLocked(make(map[string]*series))
	st.mu.Unlock()
}
