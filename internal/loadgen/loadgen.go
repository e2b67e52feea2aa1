// Package loadgen generates the user workload that drives the
// evaluations: an open-loop arrival process (Poisson by default) over a
// fixed user population with group memberships. It stands in for the
// end users of the paper's testbed.
//
// The generator targets anything implementing Target; the in-process
// microsim.Sim and a real-HTTP adapter both qualify, so the same
// workload definition drives simulated and wire-level experiments.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// Target executes one request at a virtual or real instant and reports
// the observed latency and whether the request failed.
type Target interface {
	Do(req *router.Request, at time.Time) (latency time.Duration, failed bool, err error)
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(req *router.Request, at time.Time) (time.Duration, bool, error)

var _ Target = TargetFunc(nil)

// Do implements Target.
func (f TargetFunc) Do(req *router.Request, at time.Time) (time.Duration, bool, error) {
	return f(req, at)
}

// Population is a fixed set of users with group memberships, from which
// the generator samples request identities.
type Population struct {
	users  []user
	rng    *rand.Rand
	groups []expmodel.UserGroup
}

type user struct {
	id     string
	groups []expmodel.UserGroup
}

// PopulationConfig parameterizes NewPopulation.
type PopulationConfig struct {
	// Size is the number of distinct users.
	Size int
	// Groups assigns each listed group independently with the given
	// probability to each user.
	Groups map[expmodel.UserGroup]float64
	// Seed fixes the assignment.
	Seed int64
}

// NewPopulation creates a user population.
func NewPopulation(cfg PopulationConfig) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, errors.New("loadgen: population size must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Deterministic group iteration order.
	groupList := make([]expmodel.UserGroup, 0, len(cfg.Groups))
	for g := range cfg.Groups {
		groupList = append(groupList, g)
	}
	sortGroups(groupList)
	p := &Population{rng: rng, groups: groupList}
	p.users = make([]user, cfg.Size)
	for i := range p.users {
		u := user{id: fmt.Sprintf("user-%06d", i)}
		for _, g := range groupList {
			if rng.Float64() < cfg.Groups[g] {
				u.groups = append(u.groups, g)
			}
		}
		p.users[i] = u
	}
	return p, nil
}

func sortGroups(gs []expmodel.UserGroup) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j] < gs[j-1]; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// Size returns the number of users.
func (p *Population) Size() int { return len(p.users) }

// Sample draws a uniformly random user request.
func (p *Population) Sample() *router.Request {
	u := p.users[p.rng.Intn(len(p.users))]
	return &router.Request{UserID: u.id, Groups: u.groups}
}

// Config parameterizes a load run.
type Config struct {
	// RPS is the mean arrival rate (requests per second). Ignored when
	// Rate is set.
	RPS float64
	// Rate, when non-nil, replaces the constant RPS with a time-varying
	// intensity (ramps, bursts, diurnal cycles, CSV replay — see Rate).
	// Poisson arrivals are then sampled by thinning against the peak
	// rate; Uniform arrivals space deterministically at 1/rate.
	Rate Rate
	// Duration is the (virtual) time span of the run.
	Duration time.Duration
	// Start is the virtual start instant.
	Start time.Time
	// Seed fixes the arrival process.
	Seed int64
	// Uniform switches from Poisson to evenly spaced arrivals, used by
	// latency-overhead measurements that want minimal arrival jitter.
	Uniform bool
	// Store, when non-nil, receives client-observed telemetry for every
	// completed request — the end-user vantage point, complementing the
	// services' self-reported metrics. Observations are flushed to the
	// store in batches (RecordBatch) so the generator does not pay one
	// store round-trip per request.
	Store *metrics.Store
	// Sink, when non-nil, receives the same batched client telemetry as
	// Store. A wire.Client satisfies it, so the generator can ship its
	// observations to a remote contexpd as binary batch frames instead
	// of (or alongside) recording in-process.
	Sink MetricSink
	// Metric is the latency series name recorded into Store
	// (default "client_latency", milliseconds).
	Metric string
	// MetricScope identifies the recording scope (default service
	// "loadgen", version "client").
	MetricScope metrics.Scope
	// Logf, when non-nil, receives a start-of-run line carrying the RNG
	// seed and arrival parameters, so any failure observed in CI can be
	// reproduced byte-for-byte locally.
	Logf func(format string, args ...any)
}

// MetricSink receives batched telemetry. *metrics.Store and
// *wire.Client both satisfy it.
type MetricSink interface {
	RecordBatch(samples []metrics.Sample)
}

// flushEvery bounds the client-telemetry batch the generator buffers
// before handing it to the store.
const flushEvery = 256

// Sample is one completed request.
type Sample struct {
	At      time.Time
	Latency time.Duration
	Failed  bool
}

// Result is the outcome of a load run.
type Result struct {
	Samples []Sample
	// Errors counts requests whose Target returned a transport error
	// (as opposed to an application failure).
	Errors int
}

// Run executes the workload synchronously against target: arrivals are
// generated up front, each request is issued at its virtual arrival
// instant. Wall-clock pacing is the caller's concern (the simulated
// substrates need none).
func Run(cfg Config, pop *Population, target Target) (*Result, error) {
	if cfg.RPS <= 0 && cfg.Rate == nil {
		return nil, errors.New("loadgen: RPS must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: duration must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	metric := cfg.Metric
	if metric == "" {
		metric = "client_latency"
	}
	scope := cfg.MetricScope
	if scope == (metrics.Scope{}) {
		scope = metrics.Scope{Service: "loadgen", Version: "client"}
	}
	telemetry := cfg.Store != nil || cfg.Sink != nil
	var pending []metrics.Sample
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if cfg.Store != nil {
			cfg.Store.RecordBatch(pending)
		}
		if cfg.Sink != nil {
			cfg.Sink.RecordBatch(pending)
		}
		pending = pending[:0]
	}
	issue := func(at time.Time) {
		req := pop.Sample()
		latency, failed, err := target.Do(req, at)
		if err != nil {
			res.Errors++
			return
		}
		res.Samples = append(res.Samples, Sample{At: at, Latency: latency, Failed: failed})
		if telemetry {
			pending = append(pending, metrics.Sample{
				Metric: metric, Scope: scope, At: at,
				Value: float64(latency) / float64(time.Millisecond),
			})
			if len(pending) >= flushEvery {
				flush()
			}
		}
	}

	process := "poisson"
	if cfg.Uniform {
		process = "uniform"
	}
	if cfg.Logf != nil {
		if cfg.Rate != nil {
			cfg.Logf("loadgen: run start: seed=%d duration=%s process=%s rate=time-varying",
				cfg.Seed, cfg.Duration, process)
		} else {
			cfg.Logf("loadgen: run start: seed=%d duration=%s process=%s rps=%g",
				cfg.Seed, cfg.Duration, process, cfg.RPS)
		}
	}

	at := cfg.Start
	end := cfg.Start.Add(cfg.Duration)
	switch {
	case cfg.Rate == nil:
		// Homogeneous process: the original, byte-for-byte stable path
		// (thinning would consume extra RNG draws and shift every
		// existing seeded arrival stream).
		interval := time.Duration(float64(time.Second) / cfg.RPS)
		for at.Before(end) {
			issue(at)
			if cfg.Uniform {
				at = at.Add(interval)
			} else {
				gap := time.Duration(rng.ExpFloat64() * float64(interval))
				if gap <= 0 {
					gap = time.Nanosecond
				}
				at = at.Add(gap)
			}
		}
	case cfg.Uniform:
		// Deterministic spacing at the instantaneous rate: the next
		// arrival after t lands at t + 1/rate(t). Zero-rate stretches
		// are skipped in bounded steps without issuing.
		idle := cfg.Duration / maxRateScan
		if idle < time.Millisecond {
			idle = time.Millisecond
		}
		for at.Before(end) {
			r := cfg.Rate(at.Sub(cfg.Start))
			if r <= 0 {
				at = at.Add(idle)
				continue
			}
			issue(at)
			at = at.Add(time.Duration(float64(time.Second) / r))
		}
	default:
		// Non-homogeneous Poisson by Lewis-Shedler thinning: sample a
		// homogeneous process at the peak rate, accept each candidate
		// arrival with probability rate(t)/peak.
		peak := peakRate(cfg.Rate, cfg.Duration)
		if peak > 0 {
			peakInterval := float64(time.Second) / peak
			for {
				gap := time.Duration(rng.ExpFloat64() * peakInterval)
				if gap <= 0 {
					gap = time.Nanosecond
				}
				at = at.Add(gap)
				if !at.Before(end) {
					break
				}
				if rng.Float64()*peak <= cfg.Rate(at.Sub(cfg.Start)) {
					issue(at)
				}
			}
		}
	}
	flush()
	return res, nil
}
