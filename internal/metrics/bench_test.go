package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/journal"
)

func BenchmarkRecord(b *testing.B) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Record("rt", scope, now, float64(i))
	}
}

func BenchmarkQueryP95(b *testing.B) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Now()
	for i := 0; i < 10000; i++ {
		// Strictly positive latencies, as real response times are.
		st.Record("rt", scope, base.Add(time.Duration(i)*time.Millisecond), 1+float64(i%100))
	}
	since := base.Add(5 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query("rt", scope, since, AggP95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordParallel hammers the write path from all cores, each on
// a series of its own: writers of different series share no lock, and
// find their series in the index without writing to it. Its timestamps
// advance 1 ms an operation, so how many seconds and minutes it seals —
// and its ns/op — depends on b.N: the bench gate runs it at a fixed
// -benchtime count.
func BenchmarkRecordParallel(b *testing.B) {
	st := NewStore(0)
	now := time.Now()
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1)
		scope := Scope{Service: "svc", Version: fmt.Sprintf("v%d", g)}
		i := 0
		for pb.Next() {
			st.Record("rt", scope, now.Add(time.Duration(i)*time.Millisecond), float64(i%100))
			i++
		}
	})
}

// BenchmarkQueryP95Hot queries a percentile over a busy minute: 65 536
// observations across 66 one-second buckets. Merging the buckets'
// sketches answers in O(buckets × histogram bins), whatever the number
// of observations.
func BenchmarkQueryP95Hot(b *testing.B) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Now()
	for i := 0; i < 65536; i++ {
		// Strictly positive latencies (see BenchmarkQueryP95).
		st.Record("rt", scope, base.Add(time.Duration(i)*time.Millisecond), 1+float64(i%250))
	}
	since := base // whole window: every bucket merges into the answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query("rt", scope, since, AggP95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParallel is the read path's worst case: one series,
// every core reading it while a writer holds its lock for 64-sample
// runs. A reader takes that lock to copy the view and the current
// second, so what it measures is mostly the wait for the writer's run to
// end (~0.2 µs with the seqlock mirror this store once had, ~1 µs
// without: the mirror's whole measurable share, see docs/PERFORMANCE.md
// "Series read side"). Readers allocate nothing; the allocs gate holds
// that at zero. BenchmarkQueryParallelSeries is the shape real readers
// have.
func BenchmarkQueryParallel(b *testing.B) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	now := time.Now()
	// 30s of sealed history ending now; the writer below appends live.
	for i := 0; i < 30000; i++ {
		st.Record("rt", scope, now.Add(time.Duration(i-30000)*time.Millisecond), 1+float64(i%100))
	}
	since := now.Add(-25 * time.Second)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]Sample, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			at := time.Now()
			for k := range batch {
				batch[k] = Sample{Metric: "rt", Scope: scope, At: at, Value: 1 + float64(k%100)}
			}
			st.RecordBatch(batch) // zero-alloc concurrent write pressure
		}
	}()
	aggs := []Aggregation{AggMean, AggCount, AggMax, AggRate}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := st.Query("rt", scope, since, aggs[i%len(aggs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkQueryParallelSeries is the shape an evaluation tick and a
// fleet's checks have: every core reading a 60 s mean or p95 of 400
// series in turn while two writers spread 64-sample batches over the
// same series. A reader and a writer meet on one series' lock rarely,
// and for the length of one sample's write.
func BenchmarkQueryParallelSeries(b *testing.B) {
	const nSeries, writers = 400, 2
	st := NewStore(0)
	now := time.Now()
	rng := rand.New(rand.NewSource(1))
	scopes := make([]Scope, nSeries)
	for i := range scopes {
		scopes[i] = Scope{Service: fmt.Sprintf("svc-%03d", i), Version: "v1"}
	}
	for sec := -90; sec < 0; sec++ {
		at := now.Add(time.Duration(sec) * time.Second)
		for _, scope := range scopes {
			for k := 0; k < 4; k++ {
				st.Record("rt", scope, at, 20*math.Exp(rng.NormFloat64()/2))
			}
		}
	}
	since := now.Add(-60 * time.Second)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(next int) {
			defer wg.Done()
			batch := make([]Sample, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := time.Now()
				for k := range batch {
					batch[k] = Sample{Metric: "rt", Scope: scopes[next%nSeries], At: at, Value: 1 + float64(k%100)}
					next++
				}
				st.RecordBatch(batch)
			}
		}(w * nSeries / writers)
	}
	var readers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(readers.Add(1)) * 97
		for pb.Next() {
			agg := AggMean
			if i%2 == 0 {
				agg = AggP95
			}
			if _, err := st.Query("rt", scopes[i%nSeries], since, agg); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkStoreRecordBatch measures the batched ingestion path with a
// realistic mixed batch (four series interleaved in runs, the shape the
// binary ingestion endpoint and the simulators deliver). Steady-state
// batch recording into existing series is allocation-free, and the
// bench gate holds it there.
func BenchmarkStoreRecordBatch(b *testing.B) {
	st := NewStore(0)
	now := time.Now()
	batch := make([]Sample, 256)
	for i := range batch {
		batch[i] = Sample{
			Metric: fmt.Sprintf("metric-%d", (i/16)%4),
			Scope:  Scope{Service: "svc", Version: "v1", Variant: "baseline"},
			At:     now.Add(time.Duration(i) * time.Millisecond),
			Value:  1 + float64(i%100),
		}
	}
	st.RecordBatch(batch) // create the series outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecordBatch(batch)
	}
}

// distinctBatch is tenant-a's 256 one-sample series in shuffled order,
// all stamped at, and tenant-b's 256 beside them.
func distinctBatch(at time.Time) (batch, other []Sample) {
	for _, metric := range []string{"response_time", "requests", "errors", "queue_depth"} {
		for svc := 0; svc < 32; svc++ {
			for _, ver := range []string{"v1", "v2"} {
				scope := Scope{Tenant: "tenant-a", Service: fmt.Sprintf("svc-%02d", svc), Version: ver}
				batch = append(batch, Sample{Metric: metric, Scope: scope, At: at, Value: 1 + float64(len(batch)%100)})
				scope.Tenant = "tenant-b"
				other = append(other, Sample{Metric: metric, Scope: scope, At: at, Value: 1})
			}
		}
	}
	rand.New(rand.NewSource(19)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch, other
}

// BenchmarkStoreRecordBatchDistinct is the batch a fleet sends (and
// benchmark/ingest_binary.go posts): 256 samples for 256 distinct
// series in shuffled order, all stamped with the one time the server
// took on arrival, a second tenant's 256 series resident beside them.
// No two neighbours share a series, so nothing coalesces and every
// sample pays the series probe and all three tiers' bucket lookups —
// the per-sample cost BenchmarkStoreRecordBatch's sixteen-sample runs
// hide.
func BenchmarkStoreRecordBatchDistinct(b *testing.B) {
	st := NewStore(0)
	batch, other := distinctBatch(time.Now())
	st.RecordBatch(other)
	st.RecordBatch(batch) // create the series outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecordBatch(batch)
	}
}

// BenchmarkStoreRecordBatchFresh is BenchmarkStoreRecordBatchDistinct's
// batch as the JSON ingest path delivers it: every string but the
// tenant is a fresh allocation per batch, so no write finds its series
// by the addresses of its strings and every sample takes the miss path.
// The batch cycles through 64 copies, each with its own strings, built
// outside the timed region.
func BenchmarkStoreRecordBatchFresh(b *testing.B) {
	st := NewStore(0)
	batch, other := distinctBatch(time.Now())
	copies := make([][]Sample, 64)
	for c := range copies {
		copies[c] = make([]Sample, len(batch))
		for i, sm := range batch {
			sm.Metric = strings.Clone(sm.Metric)
			sm.Scope.Service, sm.Scope.Version = strings.Clone(sm.Scope.Service), strings.Clone(sm.Scope.Version)
			copies[c][i] = sm
		}
	}
	st.RecordBatch(other)
	st.RecordBatch(batch) // create the series outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecordBatch(copies[i%len(copies)])
	}
}

// BenchmarkStoreRecordBatchTenants is ingest_binary's shape (benchmark/
// ingest_binary.go): two goroutines, whatever GOMAXPROCS is, each
// recording its own tenant's 256 one-sample series in shuffled order,
// b.N batches between them, so ns/op is a batch's share of the wall
// time. Both find every series through the one index at once; a probe
// that wrote to memory the other core reads would send that line back
// and forth between them on every sample.
func BenchmarkStoreRecordBatchTenants(b *testing.B) {
	st := NewStore(0)
	now := time.Now()
	var batches [2][]Sample
	for w, tenant := range []string{"tenant-a", "tenant-b"} {
		for _, metric := range []string{"response_time", "requests", "errors", "queue_depth"} {
			for svc := 0; svc < 32; svc++ {
				for _, ver := range []string{"v1", "v2"} {
					scope := Scope{Tenant: tenant, Service: fmt.Sprintf("svc-%02d", svc), Version: ver}
					batches[w] = append(batches[w], Sample{Metric: metric, Scope: scope, At: now, Value: 1 + float64(len(batches[w])%100)})
				}
			}
		}
		rand.New(rand.NewSource(int64(19+w))).Shuffle(len(batches[w]), func(i, j int) {
			batches[w][i], batches[w][j] = batches[w][j], batches[w][i]
		})
		st.RecordBatch(batches[w]) // create the series outside the timed region
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w, n := range [2]int{b.N - b.N/2, b.N / 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				st.RecordBatch(batches[w])
			}
		}()
	}
	wg.Wait()
}

// BenchmarkQueryP95Ladder is the evaluation tick's read: a 60 s p95
// over each of 400 series in turn, every one with a full seconds tier
// of latency-like values within a factor of ten. Round-robin over 100 MB
// of buckets, so a query finds none of its series in cache and costs the
// memory it touches: the window's buckets and their occupied bins.
func BenchmarkQueryP95Ladder(b *testing.B) {
	const nSeries, perSecond = 400, 8
	st := NewStore(0)
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1_700_000_000, 0)
	scopes := make([]Scope, nSeries)
	for i := range scopes {
		scopes[i] = Scope{Service: fmt.Sprintf("svc-%03d", i), Version: "v1"}
	}
	for sec := 0; sec < secondSlots; sec++ {
		at := base.Add(time.Duration(sec) * time.Second)
		for _, scope := range scopes {
			for k := 0; k < perSecond; k++ {
				st.Record("rt", scope, at, 20*math.Exp(rng.NormFloat64()/2))
			}
		}
	}
	since := base.Add((secondSlots - 60) * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query("rt", scopes[i%nSeries], since, AggP95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordNewSecond is the write that seals: the first sample of
// each new second on a series whose seconds tier is full, so every
// operation recycles a bucket and seals the finished second into the
// view. B/op is the view's cost per series-second: its share of the next
// regrow (the one allocation is Record's key string).
func BenchmarkRecordNewSecond(b *testing.B) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	for sec := 0; sec < secondSlots; sec++ {
		st.Record("rt", scope, base.Add(time.Duration(sec)*time.Second), 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Record("rt", scope, base.Add(time.Duration(secondSlots+i)*time.Second), 20)
	}
}

// BenchmarkRecordLate is replayed telemetry on one series with a full
// seconds tier: 128 writes a second, every fourth one 5 to 200 s late —
// older than the live seconds, so buffered — and a 60 s p95 every 64
// writes, the read that folds the buffer into the view (the other fold
// is each new second's). B/op is the fold's copy of the view, ~20 KB,
// spread over the 64 writes between two folds. The writes more than
// three minutes late are late for the minute tier too: it buffers them
// until its next new minute.
func BenchmarkRecordLate(b *testing.B) {
	const perSecond = 128
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 1<<10)
	for i := range late {
		late[i] = 5*time.Second + time.Duration(rng.Int63n(int64(195*time.Second)))
	}
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Second / perSecond) }
	for i := 0; i < secondSlots*perSecond; i++ {
		st.Record("rt", scope, at(i), 20+float64(i%50))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := at(secondSlots*perSecond + i)
		when := now
		if i%4 == 3 {
			when = now.Add(-late[i%len(late)])
		}
		st.Record("rt", scope, when, 20+float64(i%50))
		if i%64 == 63 {
			if _, err := st.Query("rt", scope, now.Add(-60*time.Second), AggP95); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// snapshotStore is what the snapshot benchmarks save: n series, one
// lognormal sample each every 5 s for span, all three tiers fed.
func snapshotStore(n int, span time.Duration) *Store {
	st := NewStore(0)
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]Sample, n)
	for at := time.Duration(0); at < span; at += 5 * time.Second {
		for i := range batch {
			batch[i] = Sample{
				Metric: "response_time", Scope: Scope{Tenant: "t", Service: fmt.Sprintf("svc-%d", i), Version: "v1"},
				At: base.Add(at), Value: 5 * math.Exp(rng.NormFloat64()),
			}
		}
		st.RecordBatch(batch)
	}
	return st
}

// saveBenchSeries and saveBenchSpan size the snapshot benchmarks: two
// hours fill 120 minute and 2 hour buckets a series.
const (
	saveBenchSeries = 512
	saveBenchSpan   = 2 * time.Hour
)

// BenchmarkSnapshotSave is contexpd's save of the minute and hour tiers:
// a record per series, written through journal.WriteFile — flush, fsync,
// rename, directory sync included. bytes/series is the file's size.
func BenchmarkSnapshotSave(b *testing.B) {
	st := snapshotStore(saveBenchSeries, saveBenchSpan)
	path := filepath.Join(b.TempDir(), "rollups")
	b.ResetTimer()
	for range b.N {
		if err := journal.WriteFile(path, st.Snapshot); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size())/saveBenchSeries, "bytes/series")
}

// BenchmarkSnapshotLoad is contexpd's boot-time restore of the file
// BenchmarkSnapshotSave writes, into an empty store.
func BenchmarkSnapshotLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "rollups")
	if err := journal.WriteFile(path, snapshotStore(saveBenchSeries, saveBenchSpan).Snapshot); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		if err := journal.ReadFile(path, NewStore(0).Restore); err != nil {
			b.Fatal(err)
		}
	}
}
