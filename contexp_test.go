package contexp_test

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"contexp"
	"contexp/internal/expmodel"
	"contexp/internal/fenrir"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/traffic"
)

// TestFullStackCanaryOverHTTP is the end-to-end integration test: a
// real HTTP microservice application behind routing proxies, a
// DSL-defined canary strategy executed by the engine on the real
// clock, live traffic, and an automatic outcome — promotion for a
// healthy candidate, rollback for a degraded one.
func TestFullStackCanaryOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock end-to-end run")
	}
	for _, tc := range []struct {
		name       string
		v2MeanMs   float64
		wantStatus string
		wantArm    string // version serving traffic afterwards
	}{
		{"healthy candidate promotes", 2, "succeeded", "v2"},
		{"degraded candidate rolls back", 80, "rolled-back", "v1"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			app := microsim.NewApplication("api", "GET /")
			if err := app.AddService("api", "v1").
				Endpoint("GET /", 2, 5).Err(); err != nil {
				t.Fatal(err)
			}
			if err := app.AddService("api", "v2").
				Endpoint("GET /", tc.v2MeanMs, tc.v2MeanMs*2.5).Err(); err != nil {
				t.Fatal(err)
			}

			table := contexp.NewRoutingTable()
			if err := microsim.InstallBaselineRoutes(app, table); err != nil {
				t.Fatal(err)
			}
			store := contexp.NewMetricStore()
			httpApp, err := microsim.StartHTTP(app, table, store, microsim.HTTPConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer httpApp.Close()

			engine, err := contexp.NewEngine(contexp.EngineConfig{
				Table: table, Store: store,
				DefaultCheckInterval: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			strategy, err := contexp.ParseStrategy(`
strategy "api-canary" {
    service   = "api"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 30%
        duration = 1200ms
        check "latency" {
            metric    = response_time
            aggregate = mean
            max       = 20
            interval  = 150ms
            window    = 1s
            failures  = 2
        }
        on success -> promote
        on failure -> rollback
    }
}`)
			if err != nil {
				t.Fatal(err)
			}
			run, err := engine.Launch(strategy)
			if err != nil {
				t.Fatal(err)
			}

			// Drive real traffic until the strategy concludes.
			deadline := time.Now().Add(15 * time.Second)
			i := 0
			for {
				select {
				case <-run.Done():
					goto done
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("strategy never concluded; phase %q", run.CurrentPhase())
				}
				req, _ := http.NewRequest(http.MethodGet, httpApp.EntryURL(), nil)
				req.Header.Set("X-User-ID", fmt.Sprintf("user-%d", i%200))
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				i++
			}
		done:
			if got := run.Status().String(); got != tc.wantStatus {
				t.Fatalf("status = %s, want %s (events: %+v)", got, tc.wantStatus, run.Events())
			}
			route, err := table.Route("api")
			if err != nil {
				t.Fatal(err)
			}
			var serving string
			for _, b := range route.Backends {
				if b.Weight > 0.99 {
					serving = b.Version
				}
			}
			if serving != tc.wantArm {
				t.Errorf("final arm = %q, want %q (%+v)", serving, tc.wantArm, route.Backends)
			}
			// Telemetry flowed for the candidate during the canary.
			scope := metrics.Scope{Service: "api", Version: "v2"}
			if n, err := store.Query("requests", scope, time.Time{}, metrics.AggCount); err != nil || n == 0 {
				t.Errorf("candidate saw no traffic: %v, %v", n, err)
			}
		})
	}
}

// TestFacadeSchedulingRoundTrip exercises the planning surface of the
// public API on a hand-built problem.
func TestFacadeSchedulingRoundTrip(t *testing.T) {
	profile := &traffic.Profile{
		Start:      time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC),
		SlotLength: time.Hour,
		Slots:      make([]float64, 96),
	}
	for i := range profile.Slots {
		profile.Slots[i] = 10000
	}
	problem := &contexp.SchedulingProblem{
		Profile:  profile,
		Capacity: 0.8,
		Experiments: []fenrir.Experiment{{
			ID: "exp-1", Practice: expmodel.PracticeCanary,
			RequiredSamples: 5000, MinDuration: 2, MaxDuration: 24,
			MinShare: 0.05, MaxShare: 0.3,
			CandidateGroups: []expmodel.UserGroup{"eu"},
			Priority:        1,
		}},
	}
	if err := problem.Validate(); err != nil {
		t.Fatal(err)
	}
	ga := &contexp.GeneticAlgorithm{}
	schedule, stats := ga.Optimize(problem, 500, 1, nil)
	if !problem.Valid(schedule) {
		t.Fatalf("invalid schedule: %v", problem.Check(schedule))
	}
	if stats.BestFitness <= 0 {
		t.Errorf("fitness = %v", stats.BestFitness)
	}
	// Reevaluate mid-run through the facade.
	res, err := contexp.Reevaluate(problem, schedule, contexp.ReevalInput{Now: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Problem == nil || res.Seed == nil {
		t.Fatal("reevaluation returned empty result")
	}
	s2, _ := ga.Optimize(res.Problem, 500, 2, res.Seed)
	if !res.Problem.Valid(s2) {
		t.Errorf("re-optimized schedule invalid: %v", res.Problem.Check(s2))
	}
}
