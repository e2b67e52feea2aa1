// Package server is the HTTP control plane of the framework: the
// middleware face of Bifrost. Where the library packages execute
// strategies in-process, this package turns them into a long-running
// service — the deployment model of the paper's Section 4.4, where
// strategies written in the experimentation-as-code DSL are submitted
// to a daemon that enacts them against live traffic.
//
// The API surface:
//
//	POST   /v1/strategies          submit a DSL strategy; starts (or queues) a run
//	GET    /v1/runs                list runs (live and finished)
//	GET    /v1/runs/{name}         inspect one run, including its events
//	DELETE /v1/runs/{name}         abort a live run (or dequeue a queued one)
//	GET    /v1/runs/{name}/events  stream run events as server-sent events
//	GET    /v1/schedule            scheduler queue + projected placement (?format=gantt)
//	GET    /v1/schedule/events     stream schedule snapshots as server-sent events
//	POST   /v1/metrics             ingest metric observations
//	POST   /v1/spans               ingest trace spans (batched)
//	GET    /v1/runs/{name}/health  live topology assessment of a run
//	GET    /v1/routes              dump the routing table
//	GET    /v1/routing/watch       stream routing snapshots/deltas to an edge agent
//	GET    /v1/agents              connected-agent registry (applied versions, lag)
//	POST   /v1/agents/heartbeat    agent lease renewal
//	GET    /v1/admin/tenants       per-tenant usage (runs, series, request budget)
//	GET    /healthz                self-reported component health (auth-exempt)
//
// Every /v1/* request passes through a middleware chain (middleware.go):
// request-ID minting, structured logging, bearer-token auth resolving
// the calling tenant, and per-tenant rate limiting. With no auth
// resolver configured all callers are the default tenant — the
// pre-tenancy behavior, byte for byte. Errors use a typed envelope,
// {"error": {"code", "message"}}, with stable machine-readable codes.
//
// A Server owns no goroutines of its own beyond the ones net/http
// starts per request; the Bifrost engine drives runs, and the optional
// demo environment (internal/demo) drives simulated traffic.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tenancy"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Engine executes submitted strategies (required).
	Engine *bifrost.Engine
	// Table is the routing table the engine manipulates (required).
	Table *router.Table
	// Store is the metric store checks query and /v1/metrics feeds
	// (required).
	Store *metrics.Store
	// EventPollInterval is how often the SSE endpoint re-reads a run's
	// event log (default 250ms).
	EventPollInterval time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Journal, when set, is the engine's write-ahead journal; /healthz
	// reports its size and sync activity. Optional.
	Journal journal.Journal
	// Scheduler, when set, admits submissions instead of launching them
	// directly: conflicting strategies queue (202) rather than error,
	// and the /v1/schedule surface comes alive. Optional.
	Scheduler *bifrost.Scheduler
	// Traces, when set, receives spans from POST /v1/spans — the span
	// ingestion path real (non-simulated) services use — and is reported
	// in /healthz. Optional.
	Traces *tracing.LiveCollector
	// Health, when set, serves the live topology assessment at
	// GET /v1/runs/{name}/health. Optional; typically the same
	// health.Monitor the engine's topology checks evaluate against.
	Health *health.Monitor
	// Fleet, when set, distributes routing snapshots to edge agents:
	// GET /v1/routing/watch streams frames, GET /v1/agents lists the
	// fleet, POST /v1/agents/heartbeat renews agent leases. Optional.
	Fleet *fleet.Hub
	// Auth, when set, requires a bearer token on every /v1/* request and
	// resolves it to the calling tenant. Nil means every caller is the
	// default tenant (the contexp-demo and test posture). Optional.
	Auth *tenancy.Resolver
	// RateLimit, when set, charges each /v1/* request against the
	// calling tenant's token bucket; throttled callers get 429 with
	// Retry-After. Optional.
	RateLimit *tenancy.Limiter
	// Logf, when set, receives one structured line per request (method,
	// path, status, duration, tenant, request ID). Optional.
	Logf func(format string, args ...any)
}

// Server serves the control-plane API.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time
	// idPrefix leads every request ID this process mints: the low 32
	// bits of start in hex, and a dash.
	idPrefix string

	// statusCache is the shared /healthz + /v1/admin/tenants snapshot;
	// statusMu single-flights its rebuilds (see statusCacheTTL).
	statusMu    sync.Mutex
	statusCache atomic.Pointer[statusSnapshot]

	// demo, when set, reports the demo environment on /healthz.
	demo func() any
}

// New creates a Server. The caller mounts Handler() on an http.Server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Table == nil || cfg.Store == nil {
		return nil, errors.New("server: engine, table, and store are required")
	}
	if cfg.EventPollInterval <= 0 {
		cfg.EventPollInterval = 250 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.idPrefix = fmt.Sprintf("%08x-", uint32(s.start.UnixNano()))
	s.mux.HandleFunc("POST /v1/strategies", s.handleSubmitStrategy)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v1/runs/{name}", s.handleGetRun)
	s.mux.HandleFunc("DELETE /v1/runs/{name}", s.handleAbortRun)
	s.mux.HandleFunc("GET /v1/runs/{name}/events", s.handleRunEvents)
	s.mux.HandleFunc("POST /v1/metrics", s.handleIngestMetrics)
	s.mux.HandleFunc("GET /v1/routes", s.handleRoutes)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Scheduler != nil {
		s.mux.HandleFunc("GET /v1/schedule", s.handleSchedule)
		s.mux.HandleFunc("GET /v1/schedule/events", s.handleScheduleEvents)
	}
	if cfg.Traces != nil {
		s.mux.HandleFunc("POST /v1/spans", s.handleIngestSpans)
	}
	if cfg.Health != nil {
		s.mux.HandleFunc("GET /v1/runs/{name}/health", s.handleRunHealth)
	}
	if cfg.Fleet != nil {
		s.mux.HandleFunc("GET /v1/routing/watch", s.handleRoutingWatch)
		s.mux.HandleFunc("GET /v1/agents", s.handleAgents)
		s.mux.HandleFunc("POST /v1/agents/heartbeat", s.handleAgentHeartbeat)
	}
	s.mux.HandleFunc("GET /v1/admin/tenants", s.handleAdminTenants)
	s.handler = s.chain()
	return s, nil
}

// Handler returns the API handler: the middleware chain wrapped around
// the route mux.
func (s *Server) Handler() http.Handler { return s.handler }

// SetDemo attaches a running demo environment: /healthz reports what
// health returns under "demo".
func (s *Server) SetDemo(health func() any) { s.demo = health }

// --- JSON views ---

// RunSummary is the list/inspect view of a run.
type RunSummary struct {
	Name      string   `json:"name"`
	Tenant    string   `json:"tenant,omitempty"`
	Service   string   `json:"service"`
	Baseline  string   `json:"baseline"`
	Candidate string   `json:"candidate"`
	Status    string   `json:"status"`
	Phase     string   `json:"phase,omitempty"`
	Phases    []string `json:"phases"`
	Events    int      `json:"events"`
	// Recovered marks runs rebuilt from the write-ahead journal after a
	// restart rather than launched by this process.
	Recovered bool `json:"recovered,omitempty"`

	// seq carries the run's launch sequence through list pagination; it
	// is surfaced only as the page's nextCursor, never serialized.
	seq uint64
}

// RunDetail adds the audit trail and the rendered state machine.
type RunDetail struct {
	RunSummary
	EventLog     []EventView `json:"eventLog"`
	StateMachine string      `json:"stateMachine"`
}

// EventView is the JSON form of one bifrost.Event.
type EventView struct {
	At      time.Time `json:"at"`
	Type    string    `json:"type"`
	Phase   string    `json:"phase,omitempty"`
	Check   string    `json:"check,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

func eventView(ev bifrost.Event) EventView {
	v := EventView{
		At:     ev.At,
		Type:   string(ev.Type),
		Phase:  ev.Phase,
		Check:  ev.Check,
		Detail: ev.Detail,
	}
	if ev.Outcome != 0 {
		v.Outcome = ev.Outcome.String()
	}
	return v
}

func runSummary(r *bifrost.Run) RunSummary {
	st := r.Strategy()
	phases := make([]string, len(st.Phases))
	for i := range st.Phases {
		phases[i] = st.Phases[i].Name
	}
	return RunSummary{
		Name:      st.Name,
		Tenant:    st.Tenant,
		Service:   st.Service,
		Baseline:  st.Baseline,
		Candidate: st.Candidate,
		Status:    r.Status().String(),
		Phase:     r.CurrentPhase(),
		Phases:    phases,
		Events:    r.EventCount(),
		Recovered: r.Recovered(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the typed error envelope with the default code for
// the status (see errorCode in middleware.go).
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeErrorCode(w, code, errorCode(code), format, args...)
}

// writeErrorCode emits the envelope with an explicit machine-readable
// code, for statuses with more than one cause (409 is "conflict" for a
// duplicate name but "busy" for a service owned by another live run).
func writeErrorCode(w http.ResponseWriter, status int, errCode, format string, args ...any) {
	writeJSON(w, status, map[string]ErrorBody{"error": {
		Code:    errCode,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeErrorTo writes the envelope body to an already-started response
// (the 404/405 interceptor, which has called WriteHeader by the time
// the body is written).
func writeErrorTo(w io.Writer, errCode, message string) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]ErrorBody{"error": {Code: errCode, Message: message}})
}

// --- handlers ---

// handleSubmitStrategy accepts a DSL strategy as the request body,
// validates it, and launches a run.
func (s *Server) handleSubmitStrategy(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"strategy larger than %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	strategy, err := bifrost.ParseStrategy(string(src))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The DSL never names a tenant: the run belongs to whoever submitted
	// it, stamped from the authenticated principal.
	strategy.Tenant = tenancy.FromContext(r.Context())
	if s.cfg.Scheduler != nil {
		// Scheduler path: conflicting submissions queue instead of
		// erroring. A queued strategy is 202 Accepted with its queue
		// entry; an immediately-launched one is 201 as before.
		res, err := s.cfg.Scheduler.Submit(strategy)
		switch {
		case errors.Is(err, bifrost.ErrAlreadyRunning) || errors.Is(err, bifrost.ErrAlreadyQueued):
			writeError(w, http.StatusConflict, "%v", err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		case res.Queued:
			w.Header().Set("Location", "/v1/schedule")
			writeJSON(w, http.StatusAccepted, res.Entry)
			return
		}
		w.Header().Set("Location", "/v1/runs/"+strategy.Name)
		writeJSON(w, http.StatusCreated, runSummary(res.Run))
		return
	}
	run, err := s.cfg.Engine.Launch(strategy)
	if err != nil {
		// The strategy already parsed and validated, so Launch can only
		// fail on a live-run name collision or service conflict (checked
		// under the engine lock) or a routing-table rejection.
		if errors.Is(err, bifrost.ErrServiceBusy) {
			writeErrorCode(w, http.StatusConflict, "busy", "%v", err)
			return
		}
		if errors.Is(err, bifrost.ErrAlreadyRunning) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+strategy.Name)
	writeJSON(w, http.StatusCreated, runSummary(run))
}

// reqTenant is the canonical tenant of the calling principal: resolved
// by the auth middleware, or the default tenant when auth is off.
func reqTenant(r *http.Request) string { return tenancy.FromContext(r.Context()) }

// reqRunKey qualifies the {name} path segment with the caller's
// tenant, yielding the engine/scheduler key. A caller can only ever
// name its own runs: tenant B asking for tenant A's run name qualifies
// to a key in B's namespace and misses.
func reqRunKey(r *http.Request) string {
	return tenancy.Qualify(reqTenant(r), r.PathValue("name"))
}

// listParams are the shared cursor-pagination controls of the list
// endpoints (?limit=, ?cursor=); responses are {"items": [...]} plus
// "nextCursor" when the listing was cut short.
type listParams struct {
	limit  int
	cursor uint64
	hasCur bool
}

const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

func parseListParams(r *http.Request) (listParams, error) {
	p := listParams{limit: defaultListLimit}
	q := r.URL.Query()
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return p, fmt.Errorf("limit must be a positive integer, got %q", raw)
		}
		p.limit = min(n, maxListLimit)
	}
	if raw := q.Get("cursor"); raw != "" {
		c, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return p, fmt.Errorf("malformed cursor %q", raw)
		}
		p.cursor = c
		p.hasCur = true
	}
	return p, nil
}

// handleListRuns lists runs in launch order (Engine.Runs already sorts
// by launch sequence), so the list reads as a chronology — including
// runs recovered from the journal, which keep their pre-restart order.
// Cursor pagination rides the launch sequence: ?cursor= is the opaque
// nextCursor of the previous page. ?state= filters by run status, and
// ?tenant= (meaningful only when auth is off, i.e. for an operator
// surface — authenticated callers always see exactly their own runs)
// filters by tenant.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	p, err := parseListParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	state := q.Get("state")
	authed := s.cfg.Auth != nil
	tenantFilter, filterByTenant := "", false
	if authed {
		tenantFilter, filterByTenant = reqTenant(r), true
	} else if q.Has("tenant") {
		tenantFilter, filterByTenant = tenancy.Canonical(q.Get("tenant")), true
	}

	items := make([]RunSummary, 0, p.limit)
	var nextCursor string
	for _, run := range s.cfg.Engine.Runs() {
		st := run.Strategy()
		if filterByTenant && st.Tenant != tenantFilter {
			continue
		}
		if state != "" && run.Status().String() != state {
			continue
		}
		if p.hasCur && run.Seq() <= p.cursor {
			continue
		}
		if len(items) == p.limit {
			nextCursor = strconv.FormatUint(items[len(items)-1].seq, 10)
			break
		}
		sum := runSummary(run)
		sum.seq = run.Seq()
		items = append(items, sum)
	}
	resp := map[string]any{"items": items}
	if nextCursor != "" {
		resp["nextCursor"] = nextCursor
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.cfg.Engine.Get(reqRunKey(r))
	if !ok {
		writeError(w, http.StatusNotFound, "no run named %q", r.PathValue("name"))
		return
	}
	events := run.Events()
	detail := RunDetail{
		RunSummary:   runSummary(run),
		EventLog:     make([]EventView, len(events)),
		StateMachine: run.Strategy().StateMachine(),
	}
	for i, ev := range events {
		detail.EventLog[i] = eventView(ev)
	}
	writeJSON(w, http.StatusOK, detail)
}

// handleAbortRun cancels a live run — or, when a scheduler is present
// and the name matches a queued submission that never launched,
// withdraws it from the queue. Aborting a finished run (including a
// second abort of the same run) is a conflict.
func (s *Server) handleAbortRun(w http.ResponseWriter, r *http.Request) {
	// Queued-but-not-launched submissions are checked first: after a
	// finished run's name is reused for a queued resubmission, the
	// abort targets the waiting entry, not the finished run.
	if s.cfg.Scheduler != nil && s.cfg.Scheduler.Cancel(reqRunKey(r)) == nil {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"name":   r.PathValue("name"),
			"status": "dequeued",
		})
		return
	}
	run, ok := s.cfg.Engine.Get(reqRunKey(r))
	if !ok {
		writeError(w, http.StatusNotFound, "no run named %q", r.PathValue("name"))
		return
	}
	if st := run.Status(); st != bifrost.StatusRunning {
		writeError(w, http.StatusConflict, "run %q already finished: %s", r.PathValue("name"), st)
		return
	}
	run.Abort()
	writeJSON(w, http.StatusAccepted, map[string]string{
		"name":   r.PathValue("name"),
		"status": "aborting",
	})
}

// Observation is one ingested metric sample. At defaults to the server's
// current time, matching what a self-reporting backend would stamp.
type Observation struct {
	Metric  string    `json:"metric"`
	Service string    `json:"service"`
	Version string    `json:"version"`
	Variant string    `json:"variant,omitempty"`
	Value   float64   `json:"value"`
	At      time.Time `json:"at,omitzero"`
}

// --- binary ingestion plumbing ---
//
// Both telemetry handlers content-negotiate on Content-Type: frames
// tagged application/x-contexp-batch take the pooled zero-alloc binary
// decoder and ingestFrames, everything else the JSON one; what either
// decodes goes through the same tail.

// frameBufPool holds the frame buffers of the binary ingestion path, so
// steady-state ingestion reads frames without per-request buffer churn.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// isBinaryBatch reports whether the request carries a binary batch
// frame (parameters after the media type are tolerated).
func isBinaryBatch(r *http.Request) bool {
	mediaType, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	// RFC 9110 §8.3.1: type and subtype are case-insensitive.
	return strings.EqualFold(strings.TrimSpace(mediaType), wire.ContentType)
}

// acceptsAcks reports whether the client offers to read a stream of
// acks: wire.AckContentType among its Accept header's media types.
func acceptsAcks(r *http.Request) bool {
	for rest := r.Header.Get("Accept"); rest != ""; {
		var item string
		item, rest, _ = strings.Cut(rest, ",")
		mediaType, _, _ := strings.Cut(item, ";")
		if strings.EqualFold(strings.TrimSpace(mediaType), wire.AckContentType) {
			return true
		}
	}
	return false
}

// ingestFrames is the binary ingest path of both telemetry endpoints.
// It reads the body as frames back to back and hands each to apply,
// which decodes, validates and records it and writes the reply a
// one-frame POST gets: 202 {"accepted": n}, or an error envelope.
//
// A client that accepts acks (wire.AckContentType) gets a stream: a 200
// whose body is one ack per frame, written and flushed once apply has
// returned, until the request body ends. Each frame after the first is
// charged to the tenant's bucket (the middleware charged the first),
// and each is held to MaxBodyBytes by its header before its body is
// read. A refused frame records nothing, its ack ends the stream, and
// the access log reports the stream with the frame's status.
//
// Any other request is a stream of one: its body must be exactly one
// frame, and apply's reply is the response. A request for acks through
// a ResponseWriter that cannot stream (EnableFullDuplex fails, as
// behind a wrapper without Unwrap) has its first frame answered alone,
// and streamEdge has marked that response Connection: close.
func (s *Server) ingestFrames(w http.ResponseWriter, r *http.Request, apply func(http.ResponseWriter, []byte)) {
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	maxBody := max(int(s.cfg.MaxBodyBytes)-wire.HeaderSize, 0)
	var rc *http.ResponseController
	stream := acceptsAcks(r)
	if stream {
		rc = http.NewResponseController(w)
	}
	if !stream || rc.EnableFullDuplex() != nil {
		frame, err := wire.ReadFrame(r.Body, *bufp, maxBody)
		if err == io.EOF {
			err = errors.New("wire: empty body, want one frame")
		}
		if err == nil && !stream {
			var one [1]byte
			if n, _ := io.ReadFull(r.Body, one[:]); n > 0 {
				err = errors.New("wire: body length does not match: bytes follow the frame")
			}
		}
		if err != nil {
			s.frameError(w, err)
			return
		}
		*bufp = frame
		apply(w, frame)
		return
	}

	// On shutdown (the request context ends) the frame being waited for
	// is cut short, and the loop ends.
	stop := context.AfterFunc(r.Context(), func() { _ = rc.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()
	w.Header().Set("Content-Type", wire.AckContentType)
	w.WriteHeader(http.StatusOK)
	reply := frameReply{header: make(http.Header)}
	var ack []byte
	for first := true; ; first = false {
		frame, err := wire.ReadFrame(r.Body, *bufp, maxBody)
		if err == io.EOF || (err != nil && r.Context().Err() != nil) {
			return
		}
		reply.reset()
		switch {
		case err != nil:
			s.frameError(&reply, err)
		case !first && s.throttle(&reply, r):
		default:
			*bufp = frame
			apply(&reply, frame)
		}
		retryAfter := 0
		if v := reply.header.Get("Retry-After"); v != "" {
			retryAfter, _ = strconv.Atoi(v)
		}
		ack = wire.AppendAck(ack[:0], reply.status, retryAfter, reply.body)
		if reply.status != http.StatusAccepted {
			noteRefused(r, reply.status)
		}
		if _, err := w.Write(ack); err != nil || rc.Flush() != nil || reply.status != http.StatusAccepted {
			return
		}
	}
}

// frameError answers a frame that could not be read: 413 when its
// header declares more than MaxBodyBytes (its body is left unread, so
// the connection closes after a one-frame response), 400 otherwise.
func (s *Server) frameError(w http.ResponseWriter, err error) {
	var de *wire.DecodeError
	if errors.As(err, &de) && de.TooLarge() {
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch larger than %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// frameReply is what apply writes for one frame of a stream — the reply
// a one-frame POST would get — held until the loop packs it into an
// ack.
type frameReply struct {
	header http.Header
	status int
	body   []byte
}

func (f *frameReply) Header() http.Header { return f.header }

func (f *frameReply) WriteHeader(code int) {
	if f.status == 0 {
		f.status = code
	}
}

func (f *frameReply) Write(b []byte) (int, error) {
	f.WriteHeader(http.StatusOK)
	f.body = append(f.body, b...)
	return len(b), nil
}

func (f *frameReply) reset() {
	clear(f.header)
	f.status = 0
	f.body = f.body[:0]
}

// readJSONBatch decodes the request body into batch, mapping oversize
// to 413. On false, the error response is already written.
func (s *Server) readJSONBatch(w http.ResponseWriter, r *http.Request, batch any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(batch); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch larger than %d bytes", s.cfg.MaxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		}
		return false
	}
	return true
}

// handleIngestMetrics records a batch of observations, the ingestion
// path real services use in place of the simulator's self-reporting.
// Two decoders — the pooled binary frame decoder and JSON — produce
// []metrics.Sample for the one tail, recordSamples.
func (s *Server) handleIngestMetrics(w http.ResponseWriter, r *http.Request) {
	if isBinaryBatch(r) {
		dec := wire.GetMetricsDecoder()
		defer wire.PutMetricsDecoder(dec)
		s.ingestFrames(w, r, func(w http.ResponseWriter, frame []byte) {
			samples, err := dec.Decode(frame)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			s.recordSamples(w, r, samples)
		})
		return
	}
	var batch struct {
		Observations []Observation `json:"observations"`
	}
	if !s.readJSONBatch(w, r, &batch) {
		return
	}
	samples := make([]metrics.Sample, len(batch.Observations))
	for i, o := range batch.Observations {
		samples[i] = metrics.Sample{
			Metric: o.Metric,
			Scope:  metrics.Scope{Service: o.Service, Version: o.Version, Variant: o.Variant},
			At:     o.At,
			Value:  o.Value,
		}
	}
	s.recordSamples(w, r, samples)
}

// recordSamples is the ingest tail both metric decoders share:
// validation, default timestamp, tenant stamp, then the whole batch in
// one RecordBatch call (same-series runs append under a single lock
// acquisition) — and only after every sample validated, so a rejected
// batch records nothing.
func (s *Server) recordSamples(w http.ResponseWriter, r *http.Request, samples []metrics.Sample) {
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	now := time.Now()
	tenant := reqTenant(r)
	for i := range samples {
		sm := &samples[i]
		if sm.Metric == "" || sm.Scope.Service == "" || sm.Scope.Version == "" {
			writeError(w, http.StatusBadRequest,
				"observation %d: metric, service, and version are required", i)
			return
		}
		// The binary codec carries raw IEEE bits. One -Inf would pass every
		// `mean <= max` check over its window, one NaN or +Inf fail them, for
		// as long as a bucket holding it stays in a ring.
		if math.IsNaN(sm.Value) || math.IsInf(sm.Value, 0) {
			writeError(w, http.StatusBadRequest, "observation %d: value must be finite", i)
			return
		}
		if sm.At.IsZero() {
			sm.At = now
		}
		// Neither codec carries a tenant; the series namespace comes
		// from the authenticated principal, not the payload.
		sm.Scope.Tenant = tenant
	}
	s.cfg.Store.RecordBatch(samples)
	writeAccepted(w, len(samples))
}

// jsonContentType is the Content-Type value writeAccepted puts in every
// reply's header without allocating it; net/http only reads it.
var jsonContentType = []string{"application/json"}

// acceptedBufs holds the buffers writeAccepted renders into. The body
// escapes through w.Write, so a stack array would cost an allocation
// per ingested batch; a Writer copies what it is given, so the buffer
// goes back once Write returns.
var acceptedBufs = sync.Pool{New: func() any { return new([48]byte) }}

// writeAccepted answers 202 with the body writeJSON renders for
// {"accepted": n}, byte for byte, without the JSON encoder: every
// ingested batch gets this reply.
func writeAccepted(w http.ResponseWriter, n int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	buf := acceptedBufs.Get().(*[48]byte)
	b := append(buf[:0], "{\n  \"accepted\": "...)
	b = strconv.AppendInt(b, int64(n), 10)
	_, _ = w.Write(append(b, "\n}\n"...))
	acceptedBufs.Put(buf)
}

// RouteView is the JSON form of one service's route.
type RouteView struct {
	Rules      []RuleView    `json:"rules,omitempty"`
	Backends   []BackendView `json:"backends"`
	Mirrors    []string      `json:"mirrors,omitempty"`
	StickySalt string        `json:"stickySalt,omitempty"`
}

// RuleView is the JSON form of one routing rule.
type RuleView struct {
	Name    string `json:"name"`
	Match   string `json:"match"`
	Version string `json:"version"`
}

// BackendView is one arm of a weighted split.
type BackendView struct {
	Version string  `json:"version"`
	Weight  float64 `json:"weight"`
}

// handleRoutes dumps the routing table. Routed services are keyed by
// tenant-qualified name ("tenant/service"); when auth is on, the view
// is scoped to the caller's slice of the table.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	services := s.cfg.Table.Services()
	view := make(map[string]RouteView, len(services))
	for _, svc := range services {
		if s.cfg.Auth != nil {
			if owner, _ := tenancy.Split(svc); owner != reqTenant(r) {
				continue
			}
		}
		route, err := s.cfg.Table.Route(svc)
		if err != nil {
			continue // removed between Services() and Route()
		}
		rv := RouteView{StickySalt: route.StickySalt, Mirrors: route.Mirrors}
		for _, rule := range route.Rules {
			rv.Rules = append(rv.Rules, RuleView{Name: rule.Name, Match: rule.Match.String(), Version: rule.Version})
		}
		for _, b := range route.Backends {
			rv.Backends = append(rv.Backends, BackendView{Version: b.Version, Weight: b.Weight})
		}
		view[svc] = rv
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tableVersion": s.cfg.Table.Version(),
		"storeSeries":  s.cfg.Store.SeriesCount(),
		"services":     view,
	})
}

// Health is the self-reported state of every component, following the
// pattern of health endpoints that expose per-component detail rather
// than a bare status code.
type Health struct {
	Status    string           `json:"status"`
	Uptime    string           `json:"uptime"`
	Engine    EngineHealth     `json:"engine"`
	Store     metrics.Stats    `json:"store"`
	Router    RouterHealth     `json:"router"`
	Journal   *journal.Stats   `json:"journal,omitempty"`
	Scheduler *SchedulerHealth `json:"scheduler,omitempty"`
	Tracing   *TracingHealth   `json:"tracing,omitempty"`
	Fleet     *FleetHealth     `json:"fleet,omitempty"`
	Demo      any              `json:"demo,omitempty"`
	// Tenants reports per-tenant usage (runs, metric series, request
	// budget) whenever more than the default tenant is visible.
	Tenants []TenantUsage `json:"tenants,omitempty"`
}

// TenantUsage is one tenant's footprint on the control plane: how many
// runs it owns (live and finished), how many metric series it is
// paying for, and how its request budget is faring.
type TenantUsage struct {
	Name string `json:"name"`
	// Runs counts the tenant's runs known to the engine; LiveRuns the
	// subset still executing.
	Runs     int `json:"runs"`
	LiveRuns int `json:"liveRuns"`
	// Series counts the tenant's metric series currently in the store.
	Series int `json:"series"`
	// Requests and Throttled mirror the rate limiter's counters; zero
	// when no limiter is configured.
	Requests  uint64 `json:"requests"`
	Throttled uint64 `json:"throttled"`
}

// TracingHealth reports the live span pipeline: the bounded collector
// feeding the topology analysis plane. SpansDropped growing means the
// interaction graphs see less traffic than the services served — the
// structural twin of Proxy.MirrorDrops.
type TracingHealth struct {
	BufferedSpans int    `json:"bufferedSpans"`
	PendingTraces int    `json:"pendingTraces"`
	SpanCap       int    `json:"spanCap"`
	SpansDropped  uint64 `json:"spansDropped"`
	// HarvestedTraces counts traces handed to the analysis plane;
	// FoldedTraces counts those that were valid and folded into graphs;
	// BrokenTraces counts harvested traces failing validation.
	HarvestedTraces int64 `json:"harvestedTraces"`
	FoldedTraces    int64 `json:"foldedTraces"`
	BrokenTraces    int64 `json:"brokenTraces"`
	// MonitoredRuns is how many runs have a live topology assessment.
	MonitoredRuns int `json:"monitoredRuns"`
}

// SchedulerHealth reports the live experiment scheduler.
type SchedulerHealth struct {
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	MaxConcurrent int     `json:"maxConcurrent"`
	Capacity      float64 `json:"capacity"`
	Version       uint64  `json:"version"`
	// Launches and Dequeues count queue entries handed to the engine
	// and withdrawn before launch, over the daemon's lifetime.
	Launches int64 `json:"launches"`
	Dequeues int64 `json:"dequeues"`
	// JournalErrors counts queue lifecycle records that failed to reach
	// the write-ahead journal.
	JournalErrors int64 `json:"journalErrors"`
}

// EngineHealth reports the Bifrost engine.
type EngineHealth struct {
	RunsByStatus map[string]int `json:"runsByStatus"`
	Evaluations  int64          `json:"evaluations"`
	BusyTime     string         `json:"busyTime"`
	// JournalErrors counts run events that failed to reach the
	// write-ahead journal; non-zero means the durable audit trail has
	// gaps.
	JournalErrors int64 `json:"journalErrors"`
	// EvalPlane reports the evaluation plane: how many store queries
	// the per-run memo answered and how many reached the store.
	EvalPlane bifrost.EvalPlaneStats `json:"evalPlane"`
	// Trail reports the audit trails held in memory: events, and the
	// chunk bytes allocated to hold them, over all runs.
	Trail bifrost.TrailStats `json:"trail"`
}

// RouterHealth reports the routing table. TableVersion is the version
// of the immutable routing snapshot currently published to the data
// plane.
type RouterHealth struct {
	Services     []string `json:"services"`
	TableVersion uint64   `json:"tableVersion"`
}

// statusSnapshot is one assembled status view shared by /healthz and
// /v1/admin/tenants. It is immutable once published.
type statusSnapshot struct {
	at     time.Time
	health Health
	usage  []TenantUsage
}

// statusCacheTTL bounds how long /healthz and /v1/admin/tenants may
// serve one assembled status snapshot. Assembling the snapshot walks
// every run and every tenant's footprint; under load-balancer probes and
// fleet dashboards polling hundreds of times a second that walk would
// dominate, so both endpoints share a snapshot rebuilt at most once per
// TTL.
const statusCacheTTL = time.Second

// status returns the current snapshot, rebuilding it at most once per
// TTL. Concurrent callers racing an expired snapshot rebuild it once
// (single flight); everyone else reads the published pointer lock-free.
func (s *Server) status() *statusSnapshot {
	if snap := s.statusCache.Load(); snap != nil && time.Since(snap.at) < statusCacheTTL {
		return snap
	}
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	if snap := s.statusCache.Load(); snap != nil && time.Since(snap.at) < statusCacheTTL {
		return snap
	}
	snap := s.buildStatus()
	s.statusCache.Store(snap)
	return snap
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.status().health)
}

// buildStatus assembles a fresh status snapshot from every component.
func (s *Server) buildStatus() *statusSnapshot {
	byStatus := make(map[string]int)
	for _, run := range s.cfg.Engine.Runs() {
		byStatus[run.Status().String()]++
	}
	evals, busy := s.cfg.Engine.EvalStats()
	h := Health{
		Status: "ok",
		Uptime: time.Since(s.start).Round(time.Millisecond).String(),
		Engine: EngineHealth{
			RunsByStatus:  byStatus,
			Evaluations:   evals,
			BusyTime:      busy.Round(time.Microsecond).String(),
			JournalErrors: s.cfg.Engine.JournalErrors(),
			EvalPlane:     s.cfg.Engine.EvalPlane(),
			Trail:         s.cfg.Engine.TrailStats(),
		},
		Store: s.cfg.Store.Stats(),
		Router: RouterHealth{
			Services:     s.cfg.Table.Services(),
			TableVersion: s.cfg.Table.Version(),
		},
	}
	if s.cfg.Journal != nil {
		stats := s.cfg.Journal.Stats()
		h.Journal = &stats
	}
	if s.cfg.Scheduler != nil {
		snap := s.cfg.Scheduler.Snapshot()
		h.Scheduler = &SchedulerHealth{
			Queued:        len(snap.Queue),
			Running:       len(snap.Running),
			MaxConcurrent: snap.MaxConcurrent,
			Capacity:      snap.Capacity,
			Version:       snap.Version,
			Launches:      s.cfg.Scheduler.Launches(),
			Dequeues:      s.cfg.Scheduler.Dequeues(),
			JournalErrors: s.cfg.Scheduler.JournalErrors(),
		}
	}
	if s.cfg.Traces != nil {
		th := &TracingHealth{
			BufferedSpans:   s.cfg.Traces.SpanCount(),
			PendingTraces:   s.cfg.Traces.PendingTraces(),
			SpanCap:         s.cfg.Traces.Cap(),
			SpansDropped:    s.cfg.Traces.Drops(),
			HarvestedTraces: s.cfg.Traces.HarvestedTraces(),
		}
		if s.cfg.Health != nil {
			th.FoldedTraces = s.cfg.Health.FoldedTraces()
			th.BrokenTraces = s.cfg.Health.BrokenTraces()
			th.MonitoredRuns = s.cfg.Health.Runs()
		}
		h.Tracing = th
	}
	if s.cfg.Fleet != nil {
		h.Fleet = fleetHealth(s.cfg.Fleet)
	}
	if s.demo != nil {
		h.Demo = s.demo()
	}
	usage := s.tenantUsage()
	if len(usage) > 1 || (len(usage) == 1 && usage[0].Name != tenancy.Display("")) {
		h.Tenants = usage
	}
	return &statusSnapshot{at: time.Now(), health: h, usage: usage}
}

// tenantUsage assembles the per-tenant footprint from every plane that
// namespaces by tenant: the engine's runs, the store's series, the
// limiter's counters, and the auth resolver's configured tenants (so a
// provisioned-but-idle tenant still shows up with zeros).
func (s *Server) tenantUsage() []TenantUsage {
	acc := make(map[string]*TenantUsage)
	get := func(tenant string) *TenantUsage {
		name := tenancy.Display(tenant)
		u, ok := acc[name]
		if !ok {
			u = &TenantUsage{Name: name}
			acc[name] = u
		}
		return u
	}
	for _, run := range s.cfg.Engine.Runs() {
		u := get(run.Strategy().Tenant)
		u.Runs++
		if run.Status() == bifrost.StatusRunning {
			u.LiveRuns++
		}
	}
	for tenant, n := range s.cfg.Store.TenantSeries() {
		get(tenant).Series = n
	}
	if s.cfg.RateLimit != nil {
		for tenant, usage := range s.cfg.RateLimit.Stats() {
			u := get(tenant)
			u.Requests = usage.Requests
			u.Throttled = usage.Throttled
		}
	}
	if s.cfg.Auth != nil {
		for _, tenant := range s.cfg.Auth.Tenants() {
			get(tenant)
		}
	}
	out := make([]TenantUsage, 0, len(acc))
	for _, u := range acc {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// handleAdminTenants is the ops view of the tenancy plane: every known
// tenant (configured, or merely present in some plane) with its usage.
// It is intentionally visible to any authenticated caller — tenant
// names and coarse counts are operator-grade metadata here, not
// secrets; deployments needing stricter separation front this route
// with their own proxy rules.
func (s *Server) handleAdminTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"items": s.status().usage})
}
