// The AB Inc motivating example from the paper's synopsis: an
// e-commerce platform releases a new recommendation feature with a
// multi-phase live testing strategy — canary release, dark launch, A/B
// test, gradual rollout — enacted automatically by Bifrost on the
// simulated microservice shop (the case-study application of Fig 4.5).
//
// The example runs the strategy twice: once against a healthy
// candidate (ends in promotion) and once against a candidate with an
// injected latency regression (the canary check trips and the engine
// rolls every user back to the stable version).
//
//	go run ./examples/ecommerce
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

const recommendationStrategy = `
strategy "recommendation-v2" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"

    # 1. Confirm basic health on 5% of the users.
    phase "canary" {
        practice    = canary
        traffic     = 5%
        duration    = 5m
        min-samples = 50
        check "latency" {
            metric    = response_time
            aggregate = p95
            scope     = relative
            max       = 1.6
            interval  = 30s
            window    = 3m
            failures  = 2
        }
        on success      -> phase "dark"
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 2
    }

    # 2. Assess scalability under full production load, invisibly.
    phase "dark" {
        practice = dark-launch
        duration = 5m
        check "latency-under-load" {
            metric    = response_time
            aggregate = p95
            max       = 120
            interval  = 30s
            window    = 3m
        }
        on success -> phase "ab"
        on failure -> rollback
    }

    # 3. Measure user acceptance on a 50/50 split.
    phase "ab" {
        practice    = ab-test
        traffic     = 50%
        duration    = 10m
        min-samples = 500
        check "latency" {
            metric    = response_time
            aggregate = p95
            scope     = relative
            max       = 1.6
            interval  = 1m
            window    = 5m
        }
        on success -> phase "rollout"
        on failure -> rollback
    }

    # 4. Expose the winner to everyone, step by step. The check uses an
    # absolute bound: once 100% of traffic is on the candidate there is
    # no baseline population left to compare against.
    phase "rollout" {
        practice      = gradual-rollout
        steps         = 25%, 50%, 75%, 100%
        step-duration = 2m
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 120
            interval  = 30s
            window    = 2m
        }
        on success -> promote
        on failure -> rollback
    }
}
`

func main() {
	if err := scenario("healthy candidate", false, contexp.StatusSucceeded); err != nil {
		fmt.Fprintln(os.Stderr, "ecommerce:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := scenario("degraded candidate (injected 6x latency regression)", true, contexp.StatusRolledBack); err != nil {
		fmt.Fprintln(os.Stderr, "ecommerce:", err)
		os.Exit(1)
	}
}

// scenario runs the strategy once and fails unless it ends in want.
func scenario(title string, degraded bool, want contexp.RunStatus) error {
	fmt.Printf("=== %s ===\n", title)
	app, err := microsim.ShopApplication()
	if err != nil {
		return err
	}
	if degraded {
		sv, err := app.Lookup("recommendation", "v2")
		if err != nil {
			return err
		}
		sv.Endpoints["GET /recommendations"].Latency = stats.LogNormalFromMeanP95(80, 200)
	}

	table := contexp.NewRoutingTable()
	if err := microsim.InstallBaselineRoutes(app, table); err != nil {
		return err
	}
	store := contexp.NewMetricStore()
	traces := contexp.NewLiveSpanCollector(0)
	sim := microsim.NewSim(app, table, traces, store, 7)

	start := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	simClock := contexp.NewSimClock(start)
	engine, err := contexp.NewEngine(contexp.EngineConfig{Clock: simClock, Table: table, Store: store})
	if err != nil {
		return err
	}
	strategy, err := contexp.ParseStrategy(recommendationStrategy)
	if err != nil {
		return err
	}
	run, err := engine.Launch(strategy)
	if err != nil {
		return err
	}

	pop, err := loadgen.NewPopulation(loadgen.PopulationConfig{Size: 5000, Seed: 2})
	if err != nil {
		return err
	}
	// 40 requests per virtual second until the strategy concludes
	// (bounded at 90 virtual minutes as a safety net).
	for elapsed := time.Duration(0); elapsed < 90*time.Minute; elapsed += time.Second {
		done, err := simClock.AwaitPark(run.Done())
		if err != nil {
			return err
		}
		if done {
			break
		}
		now := simClock.Now()
		for i := 0; i < 40; i++ {
			if _, err := sim.Execute(pop.Sample(), now); err != nil {
				return err
			}
		}
		simClock.Advance(time.Second)
	}

	fmt.Print(run.BuildReport().Render())
	fmt.Printf("virtual time elapsed: %v\n", simClock.Now().Sub(start))
	for _, ev := range run.Events() {
		switch ev.Type {
		case contexp.EventPhaseEntered:
			fmt.Printf("  %s entered %q\n", ev.At.Format("15:04:05"), ev.Phase)
		case contexp.EventRolloutStep:
			fmt.Printf("  %s rollout %s\n", ev.At.Format("15:04:05"), ev.Detail)
		case contexp.EventPhaseOutcome:
			fmt.Printf("  %s phase %q: %s\n", ev.At.Format("15:04:05"), ev.Phase, ev.Outcome)
		}
	}
	route, err := table.Route("recommendation")
	if err != nil {
		return err
	}
	fmt.Print("final routing for recommendation:\n")
	for _, b := range route.Backends {
		if b.Weight > 0 {
			fmt.Printf("  %3.0f%% -> %s\n", b.Weight*100, b.Version)
		}
	}
	// Variant-level latency report from the collected traces.
	trs := traces.Harvest(0)
	sort.Slice(trs, func(i, j int) bool { return trs[i].ID < trs[j].ID })
	for _, variant := range []contexp.SpanVariant{contexp.VariantBaseline, contexp.VariantExperiment} {
		var ms []float64
		for _, tr := range trs {
			if tr.Variant == variant {
				ms = append(ms, float64(tr.Duration())/float64(time.Millisecond))
			}
		}
		if len(ms) == 0 {
			continue
		}
		s := stats.Summarize(ms)
		fmt.Printf("end-user latency (%s): n=%d mean=%.1fms p95=%.1fms\n",
			variant, s.N, s.Mean, s.P95)
	}
	if run.Status() != want {
		return fmt.Errorf("%s: strategy ended %s, want %s", title, run.Status(), want)
	}
	return nil
}
