// Quickstart: run an A/B test on a two-service application, fully
// simulated, in a few hundred milliseconds of wall time.
//
// It shows the three moving parts of the framework working together:
// a strategy written in the DSL, the Bifrost engine enacting it through
// runtime traffic routing, and the simulated microservice application
// producing the telemetry the engine's checks consume.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"contexp"
	"contexp/internal/loadgen"
	"contexp/internal/microsim"
	"contexp/internal/stats"
)

const strategySrc = `
strategy "checkout-ab" {
    service   = "checkout"
    baseline  = "v1"
    candidate = "v2"

    phase "ab" {
        practice = ab-test
        traffic  = 50%
        duration = 10m
        check "latency-regression" {
            metric    = response_time
            aggregate = p95
            scope     = relative
            max       = 1.3      # candidate p95 may be at most 1.3x baseline
            interval  = 30s
            window    = 2m
        }
        on success -> promote
        on failure -> rollback
    }
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A tiny application: frontend -> checkout, with a v2 of checkout
	// that is slightly faster.
	app := microsim.NewApplication("frontend", "GET /")
	if err := app.AddService("frontend", "v1").
		Endpoint("GET /", 5, 12).
		Calls("checkout", "POST /order").Err(); err != nil {
		return err
	}
	if err := app.AddService("checkout", "v1").
		Endpoint("POST /order", 20, 50).Err(); err != nil {
		return err
	}
	if err := app.AddService("checkout", "v2").
		Endpoint("POST /order", 16, 40).Err(); err != nil {
		return err
	}
	if err := app.Validate(); err != nil {
		return err
	}

	// Wire the substrate: routing table, metrics, traces, simulation.
	table := contexp.NewRoutingTable()
	if err := microsim.InstallBaselineRoutes(app, table); err != nil {
		return err
	}
	store := contexp.NewMetricStore()
	traces := contexp.NewLiveSpanCollector(0)
	sim := microsim.NewSim(app, table, traces, store, 1)

	// The engine runs on a simulated clock: ten virtual minutes of
	// A/B testing finish instantly.
	start := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	simClock := contexp.NewSimClock(start)
	engine, err := contexp.NewEngine(contexp.EngineConfig{
		Clock: simClock, Table: table, Store: store,
	})
	if err != nil {
		return err
	}

	strategy, err := contexp.ParseStrategy(strategySrc)
	if err != nil {
		return err
	}
	fmt.Println(strategy.StateMachine())

	run, err := engine.Launch(strategy)
	if err != nil {
		return err
	}

	// Drive load and virtual time together: 50 requests per virtual
	// second, advancing the clock between batches so checks fire.
	pop, err := loadgen.NewPopulation(loadgen.PopulationConfig{Size: 2000, Seed: 1})
	if err != nil {
		return err
	}
	for {
		done, err := simClock.AwaitPark(run.Done())
		if err != nil {
			return err
		}
		if done {
			break
		}
		now := simClock.Now()
		for i := 0; i < 50; i++ {
			req := pop.Sample()
			if _, err := sim.Execute(req, now); err != nil {
				return err
			}
		}
		simClock.Advance(time.Second)
	}

	fmt.Printf("strategy finished: %s after %v of virtual time\n",
		run.Status(), simClock.Now().Sub(start))
	for _, ev := range run.Events() {
		switch ev.Type {
		case contexp.EventPhaseOutcome:
			fmt.Printf("  %s %-14s %s: %s\n", ev.At.Format("15:04:05"), ev.Type, ev.Phase, ev.Outcome)
		case contexp.EventRunFinished:
			fmt.Printf("  %s %-14s %s\n", ev.At.Format("15:04:05"), ev.Type, ev.Detail)
		}
	}

	// Compare the variants the way a release engineer would. The metric
	// store keeps windowed aggregates, not samples; the per-request
	// response times are the durations of the recorded checkout spans.
	trs := traces.Harvest(0)
	sort.Slice(trs, func(i, j int) bool { return trs[i].ID < trs[j].ID })
	ms := map[string][]float64{}
	for _, tr := range trs {
		for _, sp := range tr.Spans {
			if sp.Service == "checkout" {
				ms[sp.Version] = append(ms[sp.Version], float64(sp.Duration)/float64(time.Millisecond))
			}
		}
	}
	v1, v2 := ms["v1"], ms["v2"]
	res, err := stats.WelchT(v1, v2, 0.05)
	if err != nil {
		return err
	}
	fmt.Printf("checkout v1: mean %.1f ms (n=%d)\n", stats.Mean(v1), len(v1))
	fmt.Printf("checkout v2: mean %.1f ms (n=%d)\n", stats.Mean(v2), len(v2))
	fmt.Printf("Welch t-test: p = %.4g, significant = %v\n", res.PValue, res.Significant)

	route, err := table.Route("checkout")
	if err != nil {
		return err
	}
	fmt.Printf("final routing: %d%% -> %s\n",
		int(route.Backends[0].Weight*100), route.Backends[0].Version)
	// The faster candidate must win.
	if run.Status() != contexp.StatusSucceeded {
		return fmt.Errorf("strategy ended %s, want %s", run.Status(), contexp.StatusSucceeded)
	}
	return nil
}
