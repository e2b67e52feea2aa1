// Command contexpd is the continuous-experimentation control plane: a
// long-running daemon that accepts experimentation-as-code strategies
// over HTTP, enacts them with the Bifrost engine against the shared
// routing table, and reports runs, routes, and component health.
//
// Usage:
//
//	contexpd [flags]
//
//	--addr :8080             listen address
//	--data-dir ""            run-state journal directory; empty keeps
//	                         runs in memory only (no crash recovery)
//	--check-interval 5s      default check interval for strategies
//	--pprof ""               serve net/http/pprof on this separate,
//	                         private address (e.g. localhost:6060);
//	                         empty disables profiling
//	--max-concurrent 4       concurrently enacting strategies ceiling
//	--capacity 0.8           aggregate candidate-traffic share ceiling
//	--trace-buffer 100000    span cap of the live trace collector;
//	                         0 disables the topology pipeline
//	--fleet-heartbeat 5s     heartbeat interval of the agent watch
//	                         streams (see cmd/contexp-agent)
//	--auth-tokens ""         comma-separated tenant=token pairs; when
//	                         set, every /v1/* request must present one
//	                         of the tokens as a bearer token and runs
//	                         under that tenant's namespace. Empty keeps
//	                         the API open (single default tenant), the
//	                         pre-tenancy and contexp-demo posture
//	--rate-limit 0           per-tenant request budget (requests/second
//	                         against /v1/*); 0 disables throttling
//	--rate-burst 0           per-tenant burst on top of --rate-limit
//	                         (default: one second's worth)
//	--metrics-retention 24h  evict metric series idle longer than this;
//	                         0 keeps every series forever
//	--http-log               log one structured line per API request
//	                         (method, path, status, tenant, request ID)
//
// The simulated shop of the paper's case study is not part of the
// daemon: cmd/contexp-demo runs this control plane against it.
//
// With --data-dir the daemon journals every run event to a segmented
// write-ahead log before applying it, and replays the log at boot:
// finished runs come back with their full audit trails, runs a crash
// interrupted are deterministically resumed or rolled back (see
// docs/PERSISTENCE.md), and strategies that were queued but not yet
// launched are restored to the queue (see docs/SCHEDULING.md).
//
// With --trace-buffer > 0 (the default) the daemon runs the live
// topology pipeline of docs/HEALTH.md: spans stream in over
// POST /v1/spans, a bounded collector assembles them into
// traces, and per-run baseline/candidate interaction graphs answer
// `kind = topology` checks and GET /v1/runs/{name}/health.
//
// Every submission goes through the live scheduler: strategies whose
// conflict footprint (service, user groups, capacity, max-concurrency)
// is clear launch immediately, the rest queue with a projected start —
// the same launch rule played forward over the running runs' estimated
// ends. The queue is observable at /v1/schedule (add ?format=gantt for
// the ASCII chart) and /v1/schedule/events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tenancy"
	"contexp/internal/tracing"
)

type options struct {
	addr           string
	dataDir        string
	checkInterval  time.Duration
	pprofAddr      string
	maxConcurrent  int
	capacity       float64
	traceBuffer    int
	fleetHeartbeat time.Duration
	authTokens     string
	rateLimit      float64
	rateBurst      int
	retention      time.Duration
	httpLog        bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("contexpd", flag.ContinueOnError)
	opt := &options{}
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opt.dataDir, "data-dir", "",
		"directory for the run-state journal; empty keeps run state in memory only")
	fs.DurationVar(&opt.checkInterval, "check-interval", 5*time.Second,
		"default interval for checks that do not declare one")
	fs.StringVar(&opt.pprofAddr, "pprof", "",
		"serve net/http/pprof on this separate private address (e.g. localhost:6060); empty disables")
	fs.IntVar(&opt.maxConcurrent, "max-concurrent", 4,
		"maximum number of concurrently enacting strategies")
	fs.Float64Var(&opt.capacity, "capacity", 0.8,
		"aggregate candidate-traffic share ceiling across concurrent runs (0,1]")
	fs.IntVar(&opt.traceBuffer, "trace-buffer", 100_000,
		"span cap of the live trace collector feeding topology checks; 0 disables live tracing")
	fs.DurationVar(&opt.fleetHeartbeat, "fleet-heartbeat", 5*time.Second,
		"heartbeat interval of the agent watch streams (/v1/routing/watch)")
	fs.StringVar(&opt.authTokens, "auth-tokens", "",
		"comma-separated tenant=token pairs; non-empty requires a bearer token on every /v1/* request")
	fs.Float64Var(&opt.rateLimit, "rate-limit", 0,
		"per-tenant API request budget in requests/second; 0 disables throttling")
	fs.IntVar(&opt.rateBurst, "rate-burst", 0,
		"per-tenant burst above --rate-limit (default: one second's worth)")
	fs.DurationVar(&opt.retention, "metrics-retention", 24*time.Hour,
		"evict metric series idle longer than this; 0 keeps every series forever")
	fs.BoolVar(&opt.httpLog, "http-log", false,
		"log one structured line per API request")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if opt.checkInterval <= 0 {
		return nil, errors.New("--check-interval must be positive")
	}
	if opt.maxConcurrent <= 0 {
		return nil, errors.New("--max-concurrent must be positive")
	}
	if opt.capacity <= 0 || opt.capacity > 1 {
		return nil, errors.New("--capacity must be in (0,1]")
	}
	if opt.traceBuffer < 0 {
		return nil, errors.New("--trace-buffer must be >= 0")
	}
	if opt.fleetHeartbeat <= 0 {
		return nil, errors.New("--fleet-heartbeat must be positive")
	}
	if opt.rateLimit < 0 {
		return nil, errors.New("--rate-limit must be >= 0")
	}
	if opt.rateBurst < 0 {
		return nil, errors.New("--rate-burst must be >= 0")
	}
	if opt.retention < 0 {
		return nil, errors.New("--metrics-retention must be >= 0")
	}
	return opt, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "contexpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}

	table := router.NewTable()
	store := metrics.NewStore(0)

	// Tenancy plane: token → tenant resolution and per-tenant request
	// budgets. Both are optional and independent; absent, every caller
	// is the default tenant with no throttling.
	var resolver *tenancy.Resolver
	if opt.authTokens != "" {
		resolver, err = tenancy.ParseTokens(opt.authTokens)
		if err != nil {
			return err
		}
		fmt.Printf("auth: %d tenant(s) configured: %v\n", len(resolver.Tenants()), resolver.Tenants())
	}
	var limiter *tenancy.Limiter
	if opt.rateLimit > 0 {
		limiter = tenancy.NewLimiter(opt.rateLimit, opt.rateBurst)
	}

	// Durable windowed metrics: reload the rollup tiers saved by the
	// previous process, whole or not at all, then periodically persist
	// them and evict idle series (the maintenance loop below). The name
	// predates the format: the next save replaces a JSON file.
	rollupPath := ""
	if opt.dataDir != "" {
		rollupPath = filepath.Join(opt.dataDir, "metrics-rollups.json")
		if err := journal.ReadFile(rollupPath, store.Restore); err != nil && !errors.Is(err, os.ErrNotExist) {
			store.Reset()
			fmt.Printf("metrics: ignoring rollup snapshot: %v\n", err)
		}
	}

	// Live topology pipeline: a bounded span collector plus the monitor
	// folding settled traces into per-run interaction graphs. Disabled
	// entirely with --trace-buffer 0, in which case strategies with
	// topology checks are rejected at launch.
	var collector *tracing.LiveCollector
	var monitor *health.Monitor
	if opt.traceBuffer > 0 {
		collector = tracing.NewLiveCollector(opt.traceBuffer)
		monitor = health.NewMonitor(collector, 0)
	}

	// Run state: durable (file journal + crash recovery) with
	// --data-dir; without it runs live in process memory only, with no
	// journal copy to maintain.
	var jnl journal.Journal
	if opt.dataDir != "" {
		fileLog, err := journal.Open(opt.dataDir, journal.Options{})
		if err != nil {
			return err
		}
		defer fileLog.Close()
		jnl = fileLog
	}

	engineCfg := bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: opt.checkInterval,
		Journal:              jnl,
	}
	if monitor != nil {
		// Assign through a typed check so a nil *health.Monitor never
		// becomes a non-nil interface.
		engineCfg.Topology = monitor
	}
	engine, err := bifrost.NewEngine(engineCfg)
	if err != nil {
		return err
	}
	sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{
		Engine:        engine,
		Journal:       jnl,
		MaxConcurrent: opt.maxConcurrent,
		Capacity:      opt.capacity,
	})
	if err != nil {
		return err
	}
	if jnl != nil {
		report, err := engine.Recover(jnl)
		if err != nil {
			return fmt.Errorf("recovering runs from %s: %w", opt.dataDir, err)
		}
		if len(report.Runs) > 0 || report.DecodeErrors > 0 {
			fmt.Printf("journal %s: %s\n", opt.dataDir, report)
			for _, rr := range report.Runs {
				fmt.Printf("  run %q: %s\n", rr.Name, rr.Action)
			}
		}
		if len(report.Queued) > 0 {
			names := make([]string, len(report.Queued))
			for i, p := range report.Queued {
				names[i] = p.Name
			}
			fmt.Printf("journal %s: restoring %d queued strategies: %v\n", opt.dataDir, len(names), names)
			sched.Restore(report.Queued)
		}
	}

	// Fleet hub: every contexpd distributes its routing table to edge
	// agents over /v1/routing/watch; the flag only tunes the heartbeat.
	hub := fleet.New(fleet.Config{Table: table, HeartbeatInterval: opt.fleetHeartbeat})
	defer hub.Close()

	srvCfg := server.Config{
		Engine: engine, Table: table, Store: store, Journal: jnl, Scheduler: sched,
		Traces: collector, Health: monitor, Fleet: hub,
		Auth: resolver, RateLimit: limiter,
	}
	if opt.httpLog {
		srvCfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Maintenance loop: bound store memory by evicting idle series and
	// keep the on-disk rollup snapshot fresh. Final snapshot on
	// shutdown, so a clean restart loses at most nothing.
	if opt.retention > 0 || rollupPath != "" {
		maintDone := make(chan struct{})
		go func() {
			defer close(maintDone)
			ticker := time.NewTicker(time.Minute)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if opt.retention > 0 {
						if n := store.Maintain(time.Now(), opt.retention); n > 0 {
							fmt.Printf("metrics: evicted %d idle series\n", n)
						}
					}
					if rollupPath != "" {
						if err := journal.WriteFile(rollupPath, store.Snapshot); err != nil {
							fmt.Printf("metrics: saving rollup snapshot: %v\n", err)
						}
					}
				}
			}
		}()
		defer func() {
			<-maintDone
			if rollupPath != "" {
				if err := journal.WriteFile(rollupPath, store.Snapshot); err != nil {
					fmt.Printf("metrics: final rollup snapshot: %v\n", err)
				}
			}
		}()
	}

	// Profiling plane: pprof gets its own listener so profiles stay off
	// the public API address — the API's auth and rate limiting never
	// apply here, and deployments bind it to loopback or a management
	// network.
	if opt.pprofAddr != "" {
		pln, err := net.Listen("tcp", opt.pprofAddr)
		if err != nil {
			return fmt.Errorf("binding --pprof address: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pmux}
		defer pprofSrv.Close()
		go func() {
			if err := pprofSrv.Serve(pln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Printf("pprof: server stopped: %v\n", err)
			}
		}()
		fmt.Printf("pprof: profiling on http://%s/debug/pprof/ (keep this address private)\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:    opt.addr,
		Handler: srv.Handler(),
		// Derive request contexts from the signal context so long-lived
		// SSE streams end on shutdown instead of stalling Shutdown.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("contexpd listening on %s\n", opt.addr)
		fmt.Printf("  curl %s/healthz\n", curlHost(opt.addr))
		fmt.Printf("  curl %s/v1/runs\n", curlHost(opt.addr))
		fmt.Printf("  curl %s/v1/schedule\n", curlHost(opt.addr))
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("contexpd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

// curlHost renders a listen address as something curl accepts.
func curlHost(addr string) string {
	if len(addr) > 0 && addr[0] == ':' {
		return "localhost" + addr
	}
	return addr
}
