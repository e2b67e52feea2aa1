package metrics

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// seriesKey is appendSeriesKey as a string: the key the index holds
// (metric, scope)'s series under.
func seriesKey(metric string, scope Scope) string {
	return string(appendSeriesKey(nil, metric, &scope))
}

// countOf is the number of samples a query finds in (metric, scope)
// since an hour before t0.
func countOf(t *testing.T, st *Store, metric string, scope Scope) float64 {
	t.Helper()
	n, err := st.Query(metric, scope, t0.Add(-time.Hour), AggCount)
	if err != nil && !errors.Is(err, ErrNoData) {
		t.Fatal(err)
	}
	return n
}

// Equal strings at two addresses name one series: the write cache keys
// on addresses, but each address that misses finds the series the other
// made, through the index, and both fill their own slots with it.
func TestCacheEqualStringsAtTwoAddresses(t *testing.T) {
	st := NewStore(0)
	a := Scope{Tenant: "acme", Service: "catalog", Version: "v1", Variant: "canary"}
	b := Scope{Tenant: strings.Clone(a.Tenant), Service: strings.Clone(a.Service),
		Version: strings.Clone(a.Version), Variant: strings.Clone(a.Variant)}
	ma, mb := "rt", strings.Clone("rt")
	for range 10 {
		st.Record(ma, a, t0, 1)
		st.Record(mb, b, t0, 2)
		st.RecordBatch([]Sample{
			{Metric: ma, Scope: a, At: t0, Value: 3},
			{Metric: mb, Scope: b, At: t0, Value: 4},
			{Metric: ma, Scope: b, At: t0, Value: 5},
		})
	}
	if got := countOf(t, st, "rt", a); got != 50 {
		t.Errorf("count = %v, want 50", got)
	}
	if got := st.SeriesCount(); got != 1 {
		t.Errorf("SeriesCount = %d, want 1", got)
	}
}

// Writes that differ in one of the five strings land in distinct series,
// also when the two land in one cache slot: a collision costs a miss,
// never the other's series. Each case makes writes that differ in one
// string until two share a slot in the largest table, and so in every
// smaller one: fresh strings, or for the last case prefixes of one
// string, at one address and of different lengths. Their tags differ, so
// each case also forges a slot that holds the first write under the
// second's tag, as a collision of the whole hash would: it must not
// answer the second.
func TestCacheDistinctFieldsNeverShareASeries(t *testing.T) {
	base := Scope{Tenant: "acme", Service: "catalog", Version: "v1", Variant: "canary"}
	long := strings.Repeat("v", 1<<maxCacheBits+1)
	fresh := func(field int) func(n int) (string, Scope) {
		return func(n int) (string, Scope) {
			m, sc, s := "rt", base, fmt.Sprintf("other-%d", n)
			*[...]*string{&m, &sc.Tenant, &sc.Service, &sc.Version, &sc.Variant}[field] = s
			return m, sc
		}
	}
	for _, tc := range []struct {
		name string
		next func(n int) (string, Scope) // the n-th write's strings
	}{
		{"metric", fresh(0)},
		{"tenant", fresh(1)},
		{"service", fresh(2)},
		{"version", fresh(3)},
		{"variant", fresh(4)},
		{"a prefix at the same address", func(n int) (string, Scope) {
			sc := base
			sc.Version = long[:n+1] // 2 049 lengths: two share a slot
			return "rt", sc
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type write struct {
				metric string
				scope  Scope
			}
			var a, b write
			seen := make(map[uint64]write)
			for n := 0; n < len(long); n++ {
				m, sc := tc.next(n)
				i := identityHash(m, &sc) >> (64 - maxCacheBits)
				if prev, ok := seen[i]; ok {
					a, b = prev, write{m, sc}
					break
				}
				seen[i] = write{m, sc}
			}
			if a.metric == "" {
				t.Fatal("no two writes share a slot")
			}
			st := NewStore(0)
			for range 10 {
				st.Record(a.metric, a.scope, t0, 1)
				st.Record(b.metric, b.scope, t0, 2)
				st.RecordBatch([]Sample{
					{Metric: a.metric, Scope: a.scope, At: t0, Value: 1},
					{Metric: b.metric, Scope: b.scope, At: t0, Value: 2},
					{Metric: b.metric, Scope: b.scope, At: t0, Value: 2},
				})
			}
			if got := countOf(t, st, a.metric, a.scope); got != 20 {
				t.Errorf("the first series holds %v samples, want 20", got)
			}
			if got := countOf(t, st, b.metric, b.scope); got != 30 {
				t.Errorf("the second series holds %v samples, want 30", got)
			}
			if got := st.SeriesCount(); got != 2 {
				t.Errorf("SeriesCount = %d, want 2", got)
			}

			c := &writeCache{shift: 64 - minCacheBits}
			c.resize(1 << minCacheBits)
			first := new(series)
			ha, hb := identityHash(a.metric, &a.scope), identityHash(b.metric, &b.scope)
			c.slots[ha>>c.shift] = cacheEntry{a.metric, a.scope.Tenant, a.scope.Service, a.scope.Version, a.scope.Variant, first}
			c.tags[ha>>c.shift] = tag(ha)
			if got := c.lookup(ha, a.metric, &a.scope); got != first {
				t.Error("the first write's slot did not answer it")
			}
			c.tags[hb>>c.shift] = tag(hb) // the slot both writes share
			if got := c.lookup(hb, b.metric, &b.scope); got != nil {
				t.Error("a slot holding the first write's strings under the second's tag answered the second")
			}
		})
	}
}

// A series Maintain evicts while a write cache holds it: the next write
// goes to its replacement, where Query finds it, not to the orphan.
// Rounds repeat it because a write takes whichever cache the pool has
// on its P, or a new one.
func TestCacheFollowsEvictedSeries(t *testing.T) {
	st := NewStore(0)
	for round := range 20 {
		written := t0.Add(time.Duration(round) * 48 * time.Hour)
		if round%2 == 0 {
			st.Record("rt", scopeV1, written, 1)
		} else {
			st.RecordBatch([]Sample{{Metric: "rt", Scope: scopeV1, At: written, Value: 1}})
		}
		if n := st.Maintain(written.Add(48*time.Hour), 24*time.Hour); n != 1 {
			t.Fatalf("round %d: Maintain evicted %d series, want 1", round, n)
		}
		at := written.Add(48 * time.Hour)
		st.Record("rt", scopeV1, at, 7)
		st.RecordBatch([]Sample{{Metric: "rt", Scope: scopeV1, At: at, Value: 9}})
		if got, err := st.Query("rt", scopeV1, at.Add(-time.Hour), AggSum); err != nil || got != 16 {
			t.Fatalf("round %d: sum after the eviction = %v, %v; want 16", round, got, err)
		}
	}
}

// Writes after Reset are visible: a write cache filled before it must
// not send them to the series Reset dropped.
func TestCacheForgetsSeriesOnReset(t *testing.T) {
	st := NewStore(0)
	for round := range 20 {
		st.Record("rt", scopeV1, t0, 1)
		st.RecordBatch([]Sample{{Metric: "rt", Scope: scopeV2, At: t0, Value: 1}})
		st.Reset()
		st.Record("rt", scopeV2, t0, 2)
		st.RecordBatch([]Sample{{Metric: "rt", Scope: scopeV1, At: t0, Value: 2}})
		for _, sc := range []Scope{scopeV1, scopeV2} {
			if got, err := st.Query("rt", sc, t0.Add(-time.Hour), AggSum); err != nil || got != 2 {
				t.Fatalf("round %d: %v after Reset holds %v, %v; want the one write of 2", round, sc, got, err)
			}
		}
		st.Reset()
	}
}

// Two tenants' writers record through their write caches while Maintain
// evicts every series again and again (run it under -race). Then, in
// rounds, a pass evicts everything and one more batch of each tenant,
// through the caches the writers filled, lands in the replacements.
func TestCacheWritersBesideMaintain(t *testing.T) {
	st := NewStore(0)
	var batches [2][]Sample
	for w, tenant := range []string{"tenant-a", "tenant-b"} {
		for svc := 0; svc < 32; svc++ {
			for _, metric := range []string{"rt", "errors"} {
				scope := Scope{Tenant: tenant, Service: fmt.Sprintf("svc-%02d", svc), Version: "v1"}
				batches[w] = append(batches[w], Sample{Metric: metric, Scope: scope, At: t0, Value: 1})
			}
		}
	}
	later := t0.Add(48 * time.Hour)
	stop := make(chan struct{})
	var warm, wg sync.WaitGroup
	for w := range batches {
		warm.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 50 { // the cache has grown and holds the tenant's series
					warm.Done()
				}
				select {
				case <-stop:
					return
				default:
					st.RecordBatch(batches[w])
				}
			}
		}()
	}
	warm.Wait()
	for range 200 {
		st.Maintain(later, 24*time.Hour)
	}
	close(stop)
	wg.Wait()
	for round := range 5 {
		st.Maintain(later, 24*time.Hour)
		if n := st.SeriesCount(); n != 0 {
			t.Fatalf("round %d: %d series left after the pass, want 0", round, n)
		}
		for w := range batches {
			st.RecordBatch(batches[w])
		}
		for w := range batches {
			for _, sm := range batches[w] {
				if got := countOf(t, st, sm.Metric, sm.Scope); got != 1 {
					t.Fatalf("round %d: %s %v holds %v samples after the batch, want 1", round, sm.Metric, sm.Scope, got)
				}
			}
		}
	}
}
