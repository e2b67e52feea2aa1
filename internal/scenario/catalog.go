package scenario

import (
	"fmt"
	"sort"
	"time"
)

// Target names the cast of a scenario: the service under experiment,
// its candidate version (faults aimed here model a bad release), and a
// downstream dependency (faults aimed there model ambient
// infrastructure trouble the candidate did not cause).
type Target struct {
	// Service is the service being experimented on.
	Service string
	// Candidate is the new version under evaluation.
	Candidate string
	// Dependency is a downstream service shared by baseline and
	// candidate.
	Dependency string
}

// Builtin scenario names. The grading suite's acceptance matrix runs
// all of them; contexp-demo's --faults flag accepts any of them.
const (
	ScenarioSteady       = "steady"
	ScenarioRamp         = "ramp"
	ScenarioFlashCrowd   = "flash-crowd"
	ScenarioDiurnal      = "diurnal"
	ScenarioErrorStorm   = "error-storm"
	ScenarioLatencySpike = "latency-spike"
	ScenarioBlackout     = "dependency-blackout"
	ScenarioSlowRestart  = "slow-restart"
)

// catalogDuration is the virtual length of every builtin scenario,
// sized to cover a 90s canary phase plus tail traffic.
const catalogDuration = 2 * time.Minute

// catalogRPS is the builtin base arrival rate.
const catalogRPS = 80

// Catalog returns the builtin scenario matrix aimed at target. The
// first four are benign conditions (a healthy canary must survive
// them); the last four contain real or ambient faults with graded
// expectations — see scenario/suite.
func Catalog(t Target) []*Spec {
	steady := ArrivalSpec{Process: ProcessSteady, RPS: catalogRPS}
	return []*Spec{
		{
			Name:        ScenarioSteady,
			Description: "steady Poisson arrivals, no faults: the control condition",
			Duration:    catalogDuration,
			Seed:        1,
			Arrival:     steady,
		},
		{
			Name:        ScenarioRamp,
			Description: "traffic triples linearly over the run: organic growth",
			Duration:    catalogDuration,
			Seed:        2,
			Arrival:     ArrivalSpec{Process: ProcessRamp, RPS: catalogRPS / 2, ToRPS: catalogRPS * 3 / 2},
		},
		{
			Name: ScenarioFlashCrowd,
			Description: "ambient flash crowd: arrivals x4 for 30s while the shared dependency " +
				"slows under load — a canary must not be blamed for it",
			Duration: catalogDuration,
			Seed:     3,
			Arrival:  ArrivalSpec{Process: ProcessBurst, RPS: catalogRPS, Factor: 4, Start: 30 * time.Second, Width: 30 * time.Second},
			Faults: []FaultSpec{{
				// The crowd slows every version of the dependency equally:
				// relative (candidate vs baseline) checks stay clean.
				Kind: "latency-spike", Service: t.Dependency,
				Start: 30 * time.Second, Duration: 30 * time.Second,
				LatencyFactor: 3,
			}},
		},
		{
			Name:        ScenarioDiurnal,
			Description: "day/night sinusoid compressed into the run: rate swings ±60%",
			Duration:    catalogDuration,
			Seed:        4,
			Arrival:     ArrivalSpec{Process: ProcessDiurnal, RPS: catalogRPS, Amplitude: 0.6, Period: 2 * time.Minute, Peak: 30 * time.Second},
		},
		{
			Name:        ScenarioErrorStorm,
			Description: "the candidate release fails 25% of its calls for 45s: a real regression",
			Duration:    catalogDuration,
			Seed:        5,
			Arrival:     steady,
			Faults: []FaultSpec{{
				Kind: "error-storm", Service: t.Service, Version: t.Candidate,
				Start: 30 * time.Second, Duration: 45 * time.Second,
				ErrorRate: 0.25,
			}},
		},
		{
			Name:        ScenarioLatencySpike,
			Description: "the candidate release runs 5x slower for 45s: a real performance regression",
			Duration:    catalogDuration,
			Seed:        6,
			Arrival:     steady,
			Faults: []FaultSpec{{
				Kind: "latency-spike", Service: t.Service, Version: t.Candidate,
				Start: 30 * time.Second, Duration: 45 * time.Second,
				LatencyFactor: 5,
			}},
		},
		{
			Name: ScenarioBlackout,
			Description: "partial dependency blackout: 40% of calls to the shared dependency " +
				"fail for 30s, hitting baseline and candidate alike",
			Duration: catalogDuration,
			Seed:     7,
			Arrival:  steady,
			Faults: []FaultSpec{{
				Kind: "blackout", Service: t.Dependency,
				Start: 40 * time.Second, Duration: 30 * time.Second,
				Probability: 0.4,
			}},
		},
		{
			Name: ScenarioSlowRestart,
			Description: "the shared dependency restarts: 5s hard down, then cold caches " +
				"decaying from 3x latency back to normal",
			Duration: catalogDuration,
			Seed:     8,
			Arrival:  steady,
			Faults: []FaultSpec{{
				Kind: "slow-restart", Service: t.Dependency,
				Start: 40 * time.Second, Duration: 40 * time.Second,
				RestartDowntime: 5 * time.Second, LatencyFactor: 3,
			}},
		},
	}
}

// Names lists the builtin scenario names, sorted.
func Names() []string {
	specs := Catalog(Target{Service: "svc", Candidate: "v2", Dependency: "dep"})
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// ByName returns the builtin scenario called name, aimed at target.
func ByName(t Target, name string) (*Spec, error) {
	for _, s := range Catalog(t) {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenario: no builtin scenario %q (have %v)", name, Names())
}
