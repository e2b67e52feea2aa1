// Package demo is the environment cmd/contexp-demo runs: the simulated
// shop deployed as real HTTP servers behind routing proxies, a synthetic
// user population driving it, and the bundled canary → rollout
// strategy. It is a client of the control plane, never linked by the
// daemon; the server package knows it only as the func() any it
// reports under "demo" on /healthz.
package demo

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/expmodel"
	"contexp/internal/loadgen"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// StrategyDSL is the canary → gradual-rollout strategy the demo
// enacts against the simulated shop: release recommendation v2 (the
// personalized recommender) to 10% of users, and if its tail latency
// holds, roll it out to everyone in three steps. The durations are
// demo-scale (a run completes in under a minute) so phase transitions
// are watchable with curl.
const StrategyDSL = `
# Release the personalized recommender (v2) to everyone, carefully.
strategy "demo-canary-rollout" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"

    phase "canary" {
        practice    = canary
        traffic     = 10%
        duration    = 20s
        min-samples = 20
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 250
            window    = 20s
            interval  = 5s
        }
        on success      -> phase "rollout"
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 2
    }

    phase "rollout" {
        practice      = gradual-rollout
        steps         = 25%, 50%, 100%
        step-duration = 10s
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 250
            window    = 10s
            interval  = 5s
        }
        on success -> promote
        on failure -> rollback
    }
}
`

// Config parameterizes Start.
type Config struct {
	// RPS is the mean request rate of the synthetic user population
	// (default 25).
	RPS float64
	// LatencyScale compresses the simulated endpoint latencies so the
	// demo is light on CPU (default 0.1: a 20 ms endpoint takes 2 ms).
	LatencyScale float64
	// PopulationSize is the number of distinct users (default 500).
	PopulationSize int
	// Seed fixes population, latencies, and arrivals.
	Seed int64
	// StrategyDSL overrides StrategyDSL.
	StrategyDSL string
	// Enact, when true, submits the demo strategy immediately.
	Enact bool
	// Traces, when set, turns the live topology pipeline on: the shop's
	// backends emit spans into the collector (joined by the trace IDs
	// the load driver mints per user request), feeding `kind = topology`
	// checks and GET /v1/runs/{name}/health.
	Traces *tracing.LiveCollector
	// Faults, when set, injects the schedule into the shop's backends
	// (latency spikes, error storms, blackouts, slow restarts); /healthz
	// reports the live fault state. Typically built from a builtin
	// chaos scenario via contexp-demo --faults.
	Faults *microsim.Injector
	// TelemetryURL, when set, reroutes the shop's self-reported
	// telemetry through the binary wire protocol: the backends and the
	// load driver buffer their metric samples and spans into a
	// wire.Client that posts application/x-contexp-batch frames to this
	// contexpd base URL (typically the daemon's own listen address)
	// instead of recording in-process. The telemetry lands in the same
	// store and collector — but via POST /v1/metrics and /v1/spans,
	// exactly the path an externally deployed application would use.
	TelemetryURL string
	// Logf receives demo progress lines (the load generator's seed line
	// among them); nil discards them.
	Logf func(format string, args ...any)
}

// Demo is a running demo environment: the simulated shop deployed as
// real HTTP servers behind per-service router.Proxy instances, plus a
// load generator playing the user population against the entry proxy.
type Demo struct {
	app       *microsim.HTTPApplication
	topology  *microsim.Application
	entryURL  string
	faults    *microsim.Injector
	telemetry *wire.Client

	requests        atomic.Int64
	transportErrors atomic.Int64

	cancel context.CancelFunc
	done   chan struct{}
}

// Start boots the demo environment onto the given table and store
// (the same ones the engine and server use, so experiments reroute the
// demo's live traffic) and starts the load driver. Stop() releases
// everything.
func Start(engine *bifrost.Engine, table *router.Table, store *metrics.Store, cfg Config) (*Demo, error) {
	if cfg.RPS <= 0 {
		cfg.RPS = 25
	}
	if cfg.LatencyScale <= 0 {
		cfg.LatencyScale = 0.1
	}
	if cfg.PopulationSize <= 0 {
		cfg.PopulationSize = 500
	}
	if cfg.StrategyDSL == "" {
		cfg.StrategyDSL = StrategyDSL
	}

	app, err := microsim.ShopApplication()
	if err != nil {
		return nil, fmt.Errorf("demo: building shop application: %w", err)
	}
	if err := microsim.InstallBaselineRoutes(app, table); err != nil {
		return nil, fmt.Errorf("demo: installing baseline routes: %w", err)
	}
	var telemetry *wire.Client
	httpCfg := microsim.HTTPConfig{
		LatencyScale: cfg.LatencyScale,
		Seed:         cfg.Seed,
		Traces:       cfg.Traces,
		Faults:       cfg.Faults,
	}
	if cfg.TelemetryURL != "" {
		telemetry = wire.NewClient(cfg.TelemetryURL, nil, 0)
		httpCfg.Telemetry = telemetry
		httpCfg.Spans = telemetry
	}
	httpApp, err := microsim.StartHTTP(app, table, store, httpCfg)
	if err != nil {
		return nil, fmt.Errorf("demo: starting shop servers: %w", err)
	}

	pop, err := loadgen.NewPopulation(loadgen.PopulationConfig{
		Size: cfg.PopulationSize,
		Groups: map[expmodel.UserGroup]float64{
			"beta":  0.10,
			"staff": 0.02,
		},
		Seed: cfg.Seed,
	})
	if err != nil {
		httpApp.Close()
		return nil, fmt.Errorf("demo: building population: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &Demo{
		app:       httpApp,
		topology:  app,
		entryURL:  httpApp.EntryURL(),
		faults:    cfg.Faults,
		telemetry: telemetry,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go d.drive(ctx, pop, cfg)

	if cfg.Enact {
		strategy, err := bifrost.ParseStrategy(cfg.StrategyDSL)
		if err != nil {
			d.Stop()
			return nil, fmt.Errorf("demo: parsing demo strategy: %w", err)
		}
		if _, err := engine.Launch(strategy); err != nil {
			d.Stop()
			return nil, fmt.Errorf("demo: launching demo strategy: %w", err)
		}
	}
	return d, nil
}

// drive plays the user population against the entry proxy at wall-clock
// pace until the context is canceled. loadgen generates the arrival
// process; the Target paces each request to its arrival instant and
// issues it over real HTTP, so every hop flows through the proxies and
// is subject to experiment routing.
func (d *Demo) drive(ctx context.Context, pop *loadgen.Population, cfg Config) {
	defer close(d.done)
	client := &http.Client{Timeout: 10 * time.Second}
	target := loadgen.TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		if wait := time.Until(at); wait > 0 {
			select {
			case <-ctx.Done():
				return 0, false, ctx.Err()
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.entryURL, nil)
		if err != nil {
			return 0, false, err
		}
		// Mint the trace identity at the client, like a browser's
		// traceparent: each generated user request is one trace.
		if cfg.Traces != nil {
			httpReq.Header.Set(router.HeaderTraceID,
				strconv.FormatUint(uint64(cfg.Traces.NextTraceID()), 16))
		}
		httpReq.Header.Set("X-User-ID", req.UserID)
		if len(req.Groups) > 0 {
			groups := ""
			for i, g := range req.Groups {
				if i > 0 {
					groups += ","
				}
				groups += string(g)
			}
			httpReq.Header.Set("X-User-Groups", groups)
		}
		start := time.Now()
		resp, err := client.Do(httpReq)
		if err != nil {
			d.transportErrors.Add(1)
			return 0, false, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d.requests.Add(1)
		return time.Since(start), resp.StatusCode >= 500, nil
	})

	// Run the generator in short chunks so cancellation is prompt and
	// the arrival process re-anchors to the wall clock (a slow chunk
	// does not accumulate lag).
	seed := cfg.Seed
	for ctx.Err() == nil {
		// Log only the first chunk's seed line: later chunks derive their
		// seeds from it, so one line is enough to reproduce the stream.
		logf := cfg.Logf
		if seed != cfg.Seed {
			logf = nil
		}
		runCfg := loadgen.Config{
			RPS:      cfg.RPS,
			Duration: 2 * time.Second,
			Start:    time.Now(),
			Seed:     seed,
			Logf:     logf,
		}
		if d.telemetry != nil {
			// Ship the client-observed latencies over the wire too, and
			// flush each chunk's leftovers so telemetry stays fresh even
			// below the batch threshold.
			runCfg.Sink = d.telemetry
		}
		_, _ = loadgen.Run(runCfg, pop, target)
		if d.telemetry != nil {
			_ = d.telemetry.Flush()
		}
		seed++
	}
}

// EntryURL returns the URL load is driven against (the entry service's
// proxy).
func (d *Demo) EntryURL() string { return d.entryURL }

// Stop cancels the load driver and shuts the simulated shop down.
func (d *Demo) Stop() {
	d.cancel()
	<-d.done
	d.app.Close()
	if d.telemetry != nil {
		// Best-effort final flush, which also ends the client's streams;
		// the control plane may already be down.
		_ = d.telemetry.Close()
	}
}

// Health is the /healthz view of the demo environment.
type Health struct {
	Services        []string `json:"services"`
	EntryURL        string   `json:"entryURL"`
	RequestsServed  int64    `json:"requestsServed"`
	TransportErrors int64    `json:"transportErrors"`
	// MirrorDrops counts dark-launch mirror jobs the routing proxies
	// discarded on full queues: lost candidate coverage that would
	// otherwise be invisible.
	MirrorDrops uint64 `json:"mirrorDrops"`
	// Faults is the live chaos state when a fault schedule is injected:
	// every configured fault with its window, whether it is active right
	// now, and how many calls it has perturbed so far.
	Faults []microsim.FaultStatus `json:"faults,omitempty"`
	// Telemetry reports the wire-telemetry client when the demo ships
	// its telemetry as binary batch frames (Config.TelemetryURL).
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// Telemetry is the /healthz view of the demo's wire-telemetry
// client: how many binary batch frames it has posted and how many
// posts failed.
type Telemetry struct {
	Flushes uint64 `json:"flushes"`
	Errors  uint64 `json:"errors"`
}

// Health reports the demo's state.
func (d *Demo) Health() *Health {
	h := &Health{
		Services:        d.topology.Services(),
		EntryURL:        d.entryURL,
		RequestsServed:  d.requests.Load(),
		TransportErrors: d.transportErrors.Load(),
		MirrorDrops:     d.app.MirrorDrops(),
		Faults:          d.faults.Snapshot(time.Now()),
	}
	if d.telemetry != nil {
		h.Telemetry = &Telemetry{
			Flushes: d.telemetry.Flushes(),
			Errors:  d.telemetry.Errors(),
		}
	}
	return h
}
