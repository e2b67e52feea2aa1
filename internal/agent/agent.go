// Package agent is the edge half of the distributed data plane: a
// process that embeds a router.Table fed by the control plane's watch
// stream and serves traffic from it locally, so Resolve never leaves
// the box. It is the out-of-process twin of the per-service proxies
// the demo shop runs in-process — the deployment shape the paper's
// middleware assumes, where lightweight proxies sit next to service
// instances and the experimentation brain reconfigures them remotely.
//
// Lifecycle:
//
//   - On start the agent opens GET /v1/routing/watch against the
//     control plane, reporting the version its table already holds;
//     the stream answers with a heartbeat when that version is the
//     control plane's current one, and otherwise with one full snapshot
//     of its current table.
//   - Every frame (snapshot, delta, heartbeat) renews the agent's
//     lease; a stream silent for a whole lease is dropped. Deltas that
//     no longer chain (version skew after a missed frame) drop the
//     connection; the reconnect takes the current table. Versions are
//     trusted only within the control-plane process that numbered them
//     (its epoch), so after a restart the agent takes a full snapshot.
//   - When the stream dies the agent FAILS STATIC: it keeps serving
//     the last-applied snapshot and reports itself stale on /healthz
//     once the lease expires — availability over freshness, the same
//     trade Envoy/xDS makes. Reconnection retries forever with capped
//     backoff.
//   - A heartbeat loop POSTs the applied version, its epoch and the
//     resolve counters to /v1/agents/heartbeat so the control plane's
//     fleet registry sees lag and staleness per agent.
//
// Telemetry flows the other way on the existing binary batch path: a
// wire.Client buffers locally observed samples/spans and ships them to
// the control plane's ingestion endpoints; Close flushes the tail.
package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/wire"
)

// MaxFrameBytes bounds a single routing frame read from the watch
// stream (16 MiB — a snapshot of ~64k maximal routes stays well under).
const MaxFrameBytes = 16 << 20

// Config parameterizes an Agent.
type Config struct {
	// ID identifies this agent to the control plane (required).
	ID string
	// ControlPlane is the contexpd base URL (required).
	ControlPlane string
	// AdvertiseAddr is the address other processes reach this agent on,
	// reported in the fleet registry. Optional.
	AdvertiseAddr string
	// HTTPClient is used for the watch stream and heartbeats; nil uses
	// a client with no overall timeout (the watch stream is long-lived
	// by design) on http.DefaultTransport, whose connection pool it
	// shares with the rest of the process.
	HTTPClient *http.Client
	// HeartbeatInterval is how often the agent posts its applied
	// version upstream (default 5s).
	HeartbeatInterval time.Duration
	// LeaseTTL is how long the agent trusts its snapshot without
	// hearing a frame before reporting itself stale and dropping the
	// watch stream to reconnect (default 15s); it must exceed the
	// control plane's stream heartbeat interval. Staleness never stops
	// serving — it is surfaced, not enforced.
	LeaseTTL time.Duration
	// ReconnectMin/ReconnectMax bound the watch reconnect backoff
	// (defaults 100ms and the larger of 5s and ReconnectMin). The delay
	// doubles after each stream that ends before applying a frame and
	// starts again from ReconnectMin after one that applied any.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Token, when set, is sent as a bearer token on every control-plane
	// request (watch stream, heartbeats) — required against a contexpd
	// running with --auth-tokens. Optional.
	Token string
	// Telemetry, when set, receives one sample per local resolve and is
	// flushed on Close. Optional; typically a wire.Client pointed at
	// the control plane.
	Telemetry *wire.Client
	// Logf, when set, receives lifecycle messages. Optional.
	Logf func(format string, args ...any)
}

// Agent runs the edge data plane. Create with New, start with Start,
// release with Close.
type Agent struct {
	cfg   Config
	table *router.Table
	hc    *http.Client

	resolves  atomic.Uint64
	lastFrame atomic.Int64 // unix nanos of the last stream frame, 0 = never
	connected atomic.Bool
	reconns   atomic.Uint64
	skews     atomic.Uint64
	// epoch names the control-plane process whose snapshot the table
	// last took; the next watch sends it back with the table's version,
	// so a restarted control plane, whose versions start over, answers
	// with a snapshot, and heartbeats report it with the version. The
	// watch loop stores it after the snapshot is applied.
	epoch atomic.Pointer[string]

	proxyMu sync.RWMutex
	proxies map[string]*router.Proxy

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New creates an Agent with an empty routing table.
func New(cfg Config) (*Agent, error) {
	if cfg.ID == "" || cfg.ControlPlane == "" {
		return nil, errors.New("agent: ID and ControlPlane are required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = max(5*time.Second, cfg.ReconnectMin)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Agent{
		cfg:     cfg,
		table:   router.NewTable(),
		hc:      hc,
		proxies: make(map[string]*router.Proxy),
		ctx:     ctx,
		cancel:  cancel,
	}, nil
}

// Table is the agent's local routing table (the watch stream's sink).
func (a *Agent) Table() *router.Table { return a.table }

// Start launches the watch and heartbeat loops.
func (a *Agent) Start() {
	a.wg.Add(2)
	go a.watchLoop()
	go a.heartbeatLoop()
}

// Close stops the loops, sends a final heartbeat so the registry sees
// the parting state, and flushes buffered telemetry.
func (a *Agent) Close() error {
	a.cancel()
	a.wg.Wait()
	a.proxyMu.Lock()
	for _, p := range a.proxies {
		p.Close()
	}
	clear(a.proxies)
	a.proxyMu.Unlock()
	if a.cfg.Telemetry != nil {
		return a.cfg.Telemetry.Close()
	}
	return nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Stale reports fail-static mode: no stream frame within the lease.
// An agent that never connected is stale by definition (it serves an
// empty table).
func (a *Agent) Stale() bool {
	last := a.lastFrame.Load()
	return last == 0 || time.Since(time.Unix(0, last)) > a.cfg.LeaseTTL
}

// Connected reports a live watch stream.
func (a *Agent) Connected() bool { return a.connected.Load() }

// Version is the snapshot version the local table has applied.
func (a *Agent) Version() uint64 { return a.table.Version() }

// --- watch stream ---

func (a *Agent) watchLoop() {
	defer a.wg.Done()
	var delay time.Duration
	for {
		applied, err := a.watchOnce()
		a.connected.Store(false)
		if a.ctx.Err() != nil {
			return
		}
		a.reconns.Add(1)
		delay = a.reconnectDelay(delay, applied)
		a.logf("watch stream ended (%v); failing static at version %d, reconnecting in %s",
			err, a.table.Version(), delay)
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// reconnectDelay is the wait before the next watch attempt, given the
// previous wait (0 before the first) and whether the stream that just
// ended applied a frame. A stream that applied one was healthy, however
// long ago the failures that grew the delay were, so the wait starts
// again from ReconnectMin; otherwise it doubles up to ReconnectMax.
func (a *Agent) reconnectDelay(prev time.Duration, applied bool) time.Duration {
	if applied || prev <= 0 {
		return a.cfg.ReconnectMin
	}
	return min(2*prev, a.cfg.ReconnectMax)
}

// errSilentStream ends a watch stream that sent no frame for a lease.
var errSilentStream = errors.New("agent: no frame on the watch stream for a lease")

// watchOnce runs one watch connection until it breaks, applying every
// frame to the local table. applied reports whether any frame was.
// A stream silent for a whole lease is cut, even if its connection
// stays open (a wedged peer, a proxy holding the socket): the control
// plane's heartbeats keep a healthy stream well inside the lease.
func (a *Agent) watchOnce() (applied bool, err error) {
	ctx, cancel := context.WithCancelCause(a.ctx)
	defer cancel(nil)
	lease := time.AfterFunc(a.cfg.LeaseTTL, func() { cancel(errSilentStream) })
	defer lease.Stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = context.Cause(ctx)
		}
	}()
	u := fmt.Sprintf("%s/v1/routing/watch?agent=%s&lastApplied=%d&epoch=%s",
		a.cfg.ControlPlane, url.QueryEscape(a.cfg.ID), a.table.Version(), url.QueryEscape(a.tableEpoch()))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("agent: watch returned %s", resp.Status)
	}
	return a.follow(resp.Body, resp.Header.Get(wire.EpochHeader), lease)
}

// follow applies the frames of one watch stream, served by the
// control-plane process epoch names, to the local table until the
// stream breaks or a frame fails to apply; every frame renews lease.
// applied reports whether any frame was. The stream is read
// unbuffered: ReadFrame takes a header and a body with one exact read
// each, and the HTTP transport already buffers the connection, so a
// second buffer here would cost every agent its size and save no
// system call.
func (a *Agent) follow(stream io.Reader, epoch string, lease *time.Timer) (applied bool, err error) {
	var buf []byte
	sd := wire.GetSnapshotDecoder()
	defer wire.PutSnapshotDecoder(sd)
	dd := wire.GetDeltaDecoder()
	defer wire.PutDeltaDecoder(dd)
	for {
		frame, err := wire.ReadFrame(stream, buf, MaxFrameBytes)
		if err != nil {
			return applied, err
		}
		buf = frame
		switch wire.Kind(frame) {
		case wire.KindSnapshot:
			snap, err := sd.Decode(frame)
			if err != nil {
				return applied, err
			}
			if err := a.table.ApplySnapshot(snap); err != nil {
				return applied, err
			}
			a.epoch.Store(&epoch)
		case wire.KindDelta:
			delta, err := dd.Decode(frame)
			if err != nil {
				return applied, err
			}
			if err := a.table.ApplyDelta(delta); err != nil {
				if errors.Is(err, router.ErrVersionSkew) {
					// A frame was missed; reconnecting reports our real
					// version and the control plane answers with a
					// snapshot of its current table.
					a.skews.Add(1)
				}
				return applied, err
			}
		case wire.KindHeartbeat:
			if _, err := wire.DecodeHeartbeat(frame); err != nil {
				return applied, err
			}
		default:
			return applied, fmt.Errorf("agent: unexpected frame kind %d on watch stream", wire.Kind(frame))
		}
		lease.Reset(a.cfg.LeaseTTL)
		a.lastFrame.Store(time.Now().UnixNano())
		a.connected.Store(true)
		if !applied {
			applied = true
			a.logf("synced at version %d", a.table.Version())
		}
	}
}

// --- heartbeats ---

func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.cfg.HeartbeatInterval)
	defer ticker.Stop()
	a.sendHeartbeat(a.ctx) // announce immediately, not one interval late
	for {
		select {
		case <-a.ctx.Done():
			// Parting heartbeat on a fresh context: a.ctx is already
			// canceled, but the registry should still see final counters.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			a.sendHeartbeat(ctx)
			cancel()
			return
		case <-ticker.C:
			a.sendHeartbeat(a.ctx)
		}
	}
}

// tableEpoch is the epoch of the snapshot the table last took, "" before
// the first.
func (a *Agent) tableEpoch() string {
	if e := a.epoch.Load(); e != nil {
		return *e
	}
	return ""
}

func (a *Agent) sendHeartbeat(ctx context.Context) {
	// The epoch is read before the version: the watch loop stores a new
	// epoch after applying its snapshot, so a heartbeat racing a resync
	// may report the new version under the old epoch, which the registry
	// counts as nothing applied yet, but never an old version under the
	// new epoch.
	epoch := a.tableEpoch()
	body, err := json.Marshal(map[string]any{
		"id":       a.cfg.ID,
		"addr":     a.cfg.AdvertiseAddr,
		"epoch":    epoch,
		"version":  a.table.Version(),
		"resolves": a.resolves.Load(),
		"stale":    a.Stale(),
	})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.ControlPlane+"/v1/agents/heartbeat", strings.NewReader(string(body)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return // heartbeats are best effort; the lease surfaces the gap
	}
	_ = resp.Body.Close()
}

// --- serving ---

// RegisterProxy mounts a per-service reverse proxy (the router.Proxy
// data plane) for service, forwarding version -> baseURL as registered
// upstreams. Returns the proxy so callers can add more upstreams.
func (a *Agent) RegisterProxy(service string, upstreams map[string]string) (*router.Proxy, error) {
	p := router.NewProxy(service, a.table)
	for version, baseURL := range upstreams {
		if err := p.RegisterUpstream(version, baseURL); err != nil {
			p.Close()
			return nil, err
		}
	}
	a.proxyMu.Lock()
	old := a.proxies[service]
	a.proxies[service] = p
	a.proxyMu.Unlock()
	if old != nil {
		// Outside the lock: Close waits for the mirrors old has in flight,
		// and handleProxy must not wait with it.
		old.Close()
	}
	return p, nil
}

// HealthView is the agent's self-reported state, served on /healthz.
type HealthView struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	// Connected is the live-stream flag; Stale the fail-static flag.
	// A connected agent is never stale; a disconnected one serves its
	// last snapshot and turns stale when the lease runs out.
	Connected bool `json:"connected"`
	Stale     bool `json:"stale"`
	// LastFrameAgo is how long ago the last routing frame arrived
	// (empty before the first frame).
	LastFrameAgo string   `json:"lastFrameAgo,omitempty"`
	Resolves     uint64   `json:"resolves"`
	Reconnects   uint64   `json:"reconnects"`
	VersionSkews uint64   `json:"versionSkews"`
	Services     []string `json:"services"`
}

// Health snapshots the agent's state.
func (a *Agent) Health() HealthView {
	v := HealthView{
		ID:           a.cfg.ID,
		Version:      a.table.Version(),
		Connected:    a.connected.Load(),
		Stale:        a.Stale(),
		Resolves:     a.resolves.Load(),
		Reconnects:   a.reconns.Load(),
		VersionSkews: a.skews.Load(),
		Services:     a.table.Services(),
	}
	if last := a.lastFrame.Load(); last != 0 {
		v.LastFrameAgo = time.Since(time.Unix(0, last)).Round(time.Millisecond).String()
	}
	return v
}

// Handler serves the agent's local API:
//
//	GET /healthz             agent health (version, staleness, counters)
//	GET /v1/resolve          resolve a routing decision from the local table
//	ANY /proxy/{service}/... forward through the mounted router.Proxy
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /v1/resolve", a.handleResolve)
	mux.HandleFunc("/proxy/{service}/{rest...}", a.handleProxy)
	return mux
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.Health())
}

// handleResolve answers one routing decision from the local snapshot —
// the RPC shape sidecar-less clients use.
// Each resolve is counted and (when telemetry is wired) sampled
// upstream, so the control plane sees edge traffic without sitting on
// the request path.
func (a *Agent) handleResolve(w http.ResponseWriter, r *http.Request) {
	service := r.URL.Query().Get("service")
	if service == "" {
		http.Error(w, `{"error":"service query parameter is required"}`, http.StatusBadRequest)
		return
	}
	req := &router.Request{UserID: r.URL.Query().Get("user")}
	if groups := r.URL.Query().Get("groups"); groups != "" {
		for _, g := range strings.Split(groups, ",") {
			if g = strings.TrimSpace(g); g != "" {
				req.Groups = append(req.Groups, expmodel.UserGroup(g))
			}
		}
	}
	decision, err := a.table.Resolve(service, req)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadGateway)
		return
	}
	a.resolves.Add(1)
	if a.cfg.Telemetry != nil {
		a.cfg.Telemetry.RecordMetric(metrics.Sample{
			Metric: "edge_resolves",
			Scope:  metrics.Scope{Service: service, Version: decision.Version},
			Value:  1,
			At:     time.Now(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"service":      service,
		"version":      decision.Version,
		"rule":         decision.Rule,
		"mirrors":      decision.Mirrors,
		"tableVersion": a.table.Version(),
		"stale":        a.Stale(),
	})
}

// handleProxy forwards through the per-service router.Proxy, counting
// the resolve the proxy performs.
func (a *Agent) handleProxy(w http.ResponseWriter, r *http.Request) {
	service := r.PathValue("service")
	a.proxyMu.RLock()
	p := a.proxies[service]
	a.proxyMu.RUnlock()
	if p == nil {
		http.Error(w, fmt.Sprintf(`{"error":"no proxy mounted for service %q"}`, service),
			http.StatusNotFound)
		return
	}
	// Strip the /proxy/{service} prefix so upstreams see clean paths. The
	// proxy takes the header and body over; only the URL needs a copy.
	r2, u := *r, *r.URL
	u.Path, u.RawPath = "/"+r.PathValue("rest"), ""
	r2.URL = &u
	a.resolves.Add(1)
	p.ServeHTTP(w, &r2)
}
