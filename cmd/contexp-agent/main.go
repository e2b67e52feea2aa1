// Command contexp-agent is an edge data-plane node: it joins a
// contexpd control plane, mirrors the routing table over the streamed
// snapshot/delta protocol, and serves routing decisions (and optional
// reverse-proxied traffic) locally. Many agents against one contexpd
// form the distributed deployment the paper's middleware assumes:
// lightweight proxies at the edges, one experimentation brain.
//
// Usage:
//
//	contexp-agent [flags]
//
//	--control http://localhost:8080  contexpd base URL
//	--addr :7080                     local listen address
//	--id ""                          agent identity; default host-pid
//	--heartbeat 5s                   fleet heartbeat interval
//	--lease 15s                      staleness lease: no routing frame
//	                                 within this window marks the agent
//	                                 stale on /healthz (it keeps serving
//	                                 its last snapshot either way) and
//	                                 drops the watch stream to reconnect;
//	                                 must exceed contexpd's
//	                                 --fleet-heartbeat
//	--proxy ""                       mount a reverse proxy, repeatable:
//	                                 service=version@url[,version@url...]
//	--telemetry-batch 256            batch size of the binary telemetry
//	                                 client posting to the control plane;
//	                                 0 disables telemetry
//	--token ""                       bearer token for a control plane
//	                                 running with --auth-tokens; defaults
//	                                 to the CONTEXP_TOKEN environment
//	                                 variable
//
// The agent fails static: when the control plane is unreachable it
// serves the last-applied routing snapshot indefinitely, surfaces
// `"stale": true` on its own /healthz, and reconnects with backoff,
// catching up from its last version (delta chain when the control
// plane retains it, full snapshot otherwise).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"contexp/internal/agent"
	"contexp/internal/wire"
)

type proxyFlag struct {
	service   string
	upstreams map[string]string
}

type proxyList []proxyFlag

func (p *proxyList) String() string { return fmt.Sprintf("%d proxies", len(*p)) }

// Set parses service=version@url[,version@url...].
func (p *proxyList) Set(v string) error {
	service, rest, ok := strings.Cut(v, "=")
	if !ok || service == "" || rest == "" {
		return errors.New("want service=version@url[,version@url...]")
	}
	pf := proxyFlag{service: service, upstreams: make(map[string]string)}
	for _, part := range strings.Split(rest, ",") {
		version, target, ok := strings.Cut(part, "@")
		if !ok || version == "" || target == "" {
			return fmt.Errorf("bad upstream %q: want version@url", part)
		}
		pf.upstreams[version] = target
	}
	*p = append(*p, pf)
	return nil
}

type options struct {
	control    string
	addr       string
	id         string
	heartbeat  time.Duration
	lease      time.Duration
	proxies    proxyList
	telemBatch int
	token      string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("contexp-agent", flag.ContinueOnError)
	opt := &options{}
	fs.StringVar(&opt.control, "control", "http://localhost:8080", "contexpd base URL")
	fs.StringVar(&opt.addr, "addr", ":7080", "local listen address")
	fs.StringVar(&opt.id, "id", "", "agent identity; empty derives host-pid")
	fs.DurationVar(&opt.heartbeat, "heartbeat", 5*time.Second, "fleet heartbeat interval")
	fs.DurationVar(&opt.lease, "lease", 15*time.Second,
		"staleness lease; after this long without a routing frame the agent reports stale and "+
			"reconnects its watch stream (must exceed contexpd's --fleet-heartbeat)")
	fs.Var(&opt.proxies, "proxy",
		"mount a reverse proxy (repeatable): service=version@url[,version@url...]")
	fs.IntVar(&opt.telemBatch, "telemetry-batch", 256,
		"binary telemetry batch size; 0 disables the telemetry client")
	fs.StringVar(&opt.token, "token", os.Getenv("CONTEXP_TOKEN"),
		"bearer token for a control plane running with --auth-tokens (env CONTEXP_TOKEN)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if opt.control == "" {
		return nil, errors.New("--control is required")
	}
	if opt.heartbeat <= 0 || opt.lease <= 0 {
		return nil, errors.New("--heartbeat and --lease must be positive")
	}
	if opt.telemBatch < 0 {
		return nil, errors.New("--telemetry-batch must be >= 0")
	}
	if opt.id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "agent"
		}
		opt.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return opt, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "contexp-agent:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}

	// Bind first so the advertised address carries the resolved port
	// (":0" becomes a concrete one).
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}

	cfg := agent.Config{
		ID:                opt.id,
		ControlPlane:      strings.TrimRight(opt.control, "/"),
		AdvertiseAddr:     ln.Addr().String(),
		HeartbeatInterval: opt.heartbeat,
		LeaseTTL:          opt.lease,
		Token:             opt.token,
		Logf: func(format string, args ...any) {
			fmt.Printf("agent: "+format+"\n", args...)
		},
	}
	if opt.telemBatch > 0 {
		cfg.Telemetry = wire.NewClient(cfg.ControlPlane, nil, opt.telemBatch)
		cfg.Telemetry.SetToken(opt.token)
	}
	a, err := agent.New(cfg)
	if err != nil {
		return err
	}
	for _, pf := range opt.proxies {
		if _, err := a.RegisterProxy(pf.service, pf.upstreams); err != nil {
			return fmt.Errorf("mounting proxy for %s: %w", pf.service, err)
		}
		fmt.Printf("agent: proxying %s via /proxy/%s/ (%d upstreams)\n",
			pf.service, pf.service, len(pf.upstreams))
	}
	a.Start()
	defer func() {
		if err := a.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "contexp-agent: closing:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Handler:     a.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("contexp-agent %s serving on %s, watching %s\n",
			opt.id, ln.Addr(), cfg.ControlPlane)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("contexp-agent: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}
