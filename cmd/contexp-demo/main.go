// Command contexp-demo runs the control plane, in memory with an open
// API and contexpd's defaults otherwise, against the simulated shop of
// the paper's case study: real HTTP servers behind per-service routing
// proxies, driven by synthetic users, with the bundled canary →
// gradual-rollout strategy enacted unless --enact=false. Nothing is
// durable, so an interrupt just ends the process.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/demo"
	"contexp/internal/fleet"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/scenario"
	"contexp/internal/server"
	"contexp/internal/tracing"
)

type options struct {
	addr   string
	seed   int64
	enact  bool
	faults string
	wire   bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("contexp-demo", flag.ContinueOnError)
	opt := &options{}
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.Int64Var(&opt.seed, "seed", 1, "determinism seed (population, latencies, arrivals)")
	fs.BoolVar(&opt.enact, "enact", true, "auto-submit the demo canary→rollout strategy")
	fs.StringVar(&opt.faults, "faults", "", fmt.Sprintf(
		"inject the named chaos scenario's fault schedule (one of %v); /healthz reports it", scenario.Names()))
	fs.BoolVar(&opt.wire, "wire", false, "post the shop's telemetry to the control plane's own "+
		"/v1/metrics and /v1/spans as binary batch frames instead of recording in-process")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return opt, nil
}

// demoScenario compiles the named chaos scenario aimed at the shop: the
// candidate is the new recommender, the dependency the catalog it calls.
func demoScenario(name string, seed int64) (*scenario.Scenario, error) {
	target := scenario.Target{Service: "recommendation", Candidate: "v2", Dependency: "catalog"}
	spec, err := scenario.ByName(target, name)
	if err != nil {
		return nil, err
	}
	sc, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	return sc, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "contexp-demo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}
	cfg := demo.Config{Seed: opt.seed, Enact: opt.enact, Traces: tracing.NewLiveCollector(100_000),
		Logf: func(format string, args ...any) { fmt.Printf("demo: "+format+"\n", args...) }}
	if opt.faults != "" {
		sc, err := demoScenario(opt.faults, opt.seed)
		if err != nil {
			return err
		}
		if cfg.Faults, err = sc.Injector(time.Now()); err != nil { // nil for steady, ramp, diurnal
			return err
		}
	}
	table, store, monitor := router.NewTable(), metrics.NewStore(0), health.NewMonitor(cfg.Traces, 0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store,
		Topology: monitor, DefaultCheckInterval: 5 * time.Second})
	if err != nil {
		return err
	}
	sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{Engine: engine})
	if err != nil {
		return err
	}
	hub := fleet.New(fleet.Config{Table: table})
	defer hub.Close()
	srv, err := server.New(server.Config{Engine: engine, Table: table, Store: store, Scheduler: sched,
		Traces: cfg.Traces, Health: monitor, Fleet: hub})
	if err != nil {
		return err
	}
	// Bind before the shop boots: with --wire it posts its telemetry to
	// this listener from the first request.
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	base := selfURL(ln.Addr())
	if opt.wire {
		cfg.TelemetryURL = base
	}
	shop, err := demo.Start(engine, table, store, cfg)
	if err != nil {
		return err
	}
	defer shop.Stop()
	srv.SetDemo(func() any { return shop.Health() })
	fmt.Printf("contexp-demo: shop entry %s; enact=%v faults=%q wire=%v\n  curl %s/healthz\n  curl %s/v1/runs\n",
		shop.EntryURL(), opt.enact, opt.faults, opt.wire, base, base)
	return http.Serve(ln, srv.Handler())
}

// selfURL is the listener's base URL, an unspecified host made loopback.
func selfURL(addr net.Addr) string {
	host, port, _ := net.SplitHostPort(addr.String()) // a TCP listener's address always splits
	if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
