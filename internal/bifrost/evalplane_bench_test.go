package bifrost

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// BenchmarkEvalPlane measures one evaluation-plane tick at scale: 200
// concurrent runs, each with four due checks — a staged ladder of
// thresholds over one shared latency signal (p95), the common
// multi-threshold guard shape — over per-run series that concurrent
// RecordBatch writers are hammering throughout the timed region. It is
// the shipped path: each run's batch is evaluated in order on its own
// persistent goroutine, like the engine's run loops, and the run's memo
// reduces the ladder to one sketch merge per run per tick.
func BenchmarkEvalPlane(b *testing.B) {
	const (
		evalPlaneRuns   = 200
		evalPlaneWindow = 240 * time.Second
	)
	store := metrics.NewStore(0)
	eng, err := NewEngine(Config{Clock: clock.Real{}, Table: router.NewTable(), Store: store})
	if err != nil {
		b.Fatal(err)
	}

	// 200 runs over distinct per-service series.
	runs := make([]*Run, evalPlaneRuns)
	scopes := make([]metrics.Scope, evalPlaneRuns)
	now := time.Now()
	for i := range runs {
		svc := fmt.Sprintf("svc-%03d", i)
		s := &Strategy{
			Name: "strat-" + svc, Service: svc, Baseline: "v1", Candidate: "v2",
			Phases: []Phase{{
				Name: "canary", Traffic: TrafficSpec{CandidateWeight: 0.1},
				Duration: time.Minute,
				// A threshold ladder over one shared p95 signal: four
				// checks, one distinct query key.
				Checks: []Check{
					{Name: "p95-soft", Metric: "response_time", Aggregation: metrics.AggP95,
						Upper: true, Threshold: 1e9, Interval: evalPlaneWindow},
					{Name: "p95-warn", Metric: "response_time", Aggregation: metrics.AggP95,
						Upper: true, Threshold: 1e8, Interval: evalPlaneWindow},
					{Name: "p95-hard", Metric: "response_time", Aggregation: metrics.AggP95,
						Upper: true, Threshold: 1e7, Interval: evalPlaneWindow},
					{Name: "p95-trip", Metric: "response_time", Aggregation: metrics.AggP95,
						Upper: true, Threshold: 1e6, Interval: evalPlaneWindow},
				},
			}},
		}
		runs[i] = &Run{strategy: s, engine: eng, log: new(runLog)}
		scopes[i] = metrics.Scope{Service: svc, Version: "v2"}
		// A full window of sealed per-second history ending now, so every
		// query has data regardless of how long the timed region runs.
		for ts := -245; ts <= 0; ts++ {
			store.Record("response_time", scopes[i], now.Add(time.Duration(ts)*time.Second), 1+float64(ts&63))
		}
	}

	// Concurrent write pressure on the very series the checks read.
	// Writers pace themselves so they model a steady ingestion stream
	// rather than monopolizing the benchmark machine's cores.
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			batch := make([]metrics.Sample, 64)
			for i := w; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				scope := scopes[i%evalPlaneRuns]
				at := time.Now()
				for k := range batch {
					batch[k] = metrics.Sample{Metric: "response_time", Scope: scope, At: at, Value: 1 + float64(k&63)}
				}
				store.RecordBatch(batch)
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	// Per-run check slices built once, like observe()'s reused buffers.
	checkSets := make([][]*Check, len(runs))
	for i, r := range runs {
		p := &r.strategy.Phases[0]
		checks := make([]*Check, len(p.Checks))
		for ci := range p.Checks {
			checks[ci] = &p.Checks[ci]
		}
		checkSets[i] = checks
	}

	// Persistent per-run goroutines, each on its own channel so that
	// every run evaluates exactly once per tick: on a shared channel a
	// goroutine that finished early could take a second tick, answer it
	// from its memo, and leave another run unevaluated.
	tickChs := make([]chan time.Time, len(runs))
	var doneWg, lifeWg sync.WaitGroup
	for i, r := range runs {
		tickChs[i] = make(chan time.Time)
		lifeWg.Add(1)
		go func() {
			defer lifeWg.Done()
			for tick := range tickChs[i] {
				r.evalBatch(&r.strategy.Phases[0], checkSets[i], tick)
				doneWg.Done()
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := time.Now()
		doneWg.Add(len(runs))
		for _, ch := range tickChs {
			ch <- tick
		}
		doneWg.Wait()
	}
	b.StopTimer()
	for _, ch := range tickChs {
		close(ch)
	}
	lifeWg.Wait()
	close(stop)
	writers.Wait()
}
