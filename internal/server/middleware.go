package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"contexp/internal/tenancy"
)

// This file is the control plane's HTTP edge: a pluggable middleware
// chain wrapped around the API mux. Order matters and is fixed:
//
//	stream edge → request ID → logging → auth → rate limit → JSON 404/405 → mux
//
// The stream edge comes first so that nothing behind it can answer a
// telemetry stream's open by waiting on a body that never ends (see
// streamEdge). Request IDs are minted (or accepted) next so every log
// line and error can carry one; logging wraps everything downstream so
// rejected requests (401, 429) are logged too; auth resolves the bearer
// token to a tenant before the limiter charges that tenant's bucket;
// and the envelope interceptor converts the mux's plain-text 404/405
// defaults into the API's typed error envelope.

// --- typed error envelope ---

// ErrorBody is the typed error envelope every non-2xx API response
// carries: {"error": {"code", "message", "details"}}. Code is a stable
// machine-readable string; Message is for humans.
type ErrorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// errorCode maps an HTTP status to its default envelope code; handlers
// with a more specific code (e.g. "busy" vs generic "conflict") use
// writeErrorCode directly.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	default:
		return "internal"
	}
}

// --- request identity ---

// reqSeq numbers requests within the process for minted request IDs.
var reqSeq atomic.Uint64

// requestID accepts a sane inbound X-Request-Id (so a caller's
// correlation ID flows through) or mints one: the process's prefix and
// the request's sequence number zero-padded to six digits
// ("%08x-%06d"), put together by hand because every request pays for
// it.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id != "" && len(id) <= 64 && !strings.ContainsAny(id, " \t\r\n") {
		return id
	}
	seq := reqSeq.Add(1)
	var buf [32]byte
	b := append(buf[:0], s.idPrefix...)
	for pad := uint64(100000); pad > seq; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, seq, 10))
}

// --- middleware chain ---

// chain builds the edge stack around the mux. Called once from New.
func (s *Server) chain() http.Handler {
	var h http.Handler = &envelopeHandler{next: s.mux}
	h = s.rateLimitMiddleware(h)
	h = s.authMiddleware(h)
	h = s.loggingMiddleware(h)
	h = s.requestIDMiddleware(h)
	return streamEdge(h)
}

// streamEdge readies the connection of a request that offers to stream
// telemetry (it accepts wire.AckContentType) before any handler can
// answer it. Unless full duplex is on, net/http drains an unread
// request body before it writes a response, and a stream's body ends
// only when its client ends it, while the client waits for that
// response: a 401, 429 or 404 to the open would never leave. So the
// edge enables full duplex, or, where the ResponseWriter cannot (a
// wrapper without Unwrap), marks the response Connection: close, which
// skips the drain; ingestFrames then answers the stream's first frame
// alone.
func streamEdge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if acceptsAcks(r) && http.NewResponseController(w).EnableFullDuplex() != nil {
			w.Header().Set("Connection", "close")
		}
		next.ServeHTTP(w, r)
	})
}

// guarded reports whether the edge guards (auth, rate limit) apply to
// a path. Only the API surface is guarded: /healthz stays open so
// probes and load balancers never need credentials.
func guarded(path string) bool { return strings.HasPrefix(path, "/v1/") }

func (s *Server) requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(tenancy.WithRequestID(r.Context(), id)))
	})
}

// logState is a mutable cell the logging middleware plants in the
// request context so the middleware and handlers downstream (which run
// on a derived request the logger never sees) can report back up for
// the access-log line: auth the resolved tenant, and ingestFrames the
// status of the frame it refused, which ends a telemetry stream. The
// line reports that status in place of the stream's 200, as it would
// for a one-frame POST.
type logState struct {
	tenant  string
	refused int
}

// noteRefused reports a stream's refused frame to the access log.
func noteRefused(r *http.Request, status int) {
	if ls, ok := r.Context().Value(logStateKey{}).(*logState); ok {
		ls.refused = status
	}
}

type logStateKey struct{}

func (s *Server) loggingMiddleware(next http.Handler) http.Handler {
	if s.cfg.Logf == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ls := &logState{}
		r = r.WithContext(context.WithValue(r.Context(), logStateKey{}, ls))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		status := rec.status
		if ls.refused != 0 {
			status = ls.refused
		}
		s.cfg.Logf("http %s %s status=%d bytes=%d dur=%s tenant=%s req=%s",
			r.Method, r.URL.Path, status, rec.bytes,
			time.Since(start).Round(time.Microsecond),
			tenancy.Display(ls.tenant),
			tenancy.RequestIDFromContext(r.Context()))
	})
}

// authMiddleware resolves the bearer token to a tenant. With no
// resolver configured every caller is the default tenant (the
// pre-tenancy, contexp-demo, and test posture); with one configured,
// every guarded request must present a known token.
func (s *Server) authMiddleware(next http.Handler) http.Handler {
	if s.cfg.Auth == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !guarded(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		token := bearerToken(r)
		if token == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="contexp"`)
			writeErrorCode(w, http.StatusUnauthorized, "unauthorized",
				"missing bearer token (Authorization: Bearer <token>)")
			return
		}
		tenant, ok := s.cfg.Auth.Resolve(token)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="contexp"`)
			writeErrorCode(w, http.StatusUnauthorized, "unauthorized", "unknown token")
			return
		}
		if ls, ok := r.Context().Value(logStateKey{}).(*logState); ok {
			ls.tenant = tenant
		}
		next.ServeHTTP(w, r.WithContext(tenancy.WithTenant(r.Context(), tenant)))
	})
}

func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return strings.TrimSpace(auth[len(prefix):])
	}
	return ""
}

// rateLimitMiddleware charges each guarded request against the
// caller's tenant bucket; throttled requests get 429 with Retry-After.
func (s *Server) rateLimitMiddleware(next http.Handler) http.Handler {
	if s.cfg.RateLimit == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if guarded(r.URL.Path) && s.throttle(w, r) {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// throttle charges one request, or one frame of a telemetry stream,
// against the caller's tenant bucket. Over budget, it answers 429 with
// Retry-After and reports true.
func (s *Server) throttle(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.RateLimit == nil {
		return false
	}
	tenant := tenancy.FromContext(r.Context())
	ok, retryAfter := s.cfg.RateLimit.Allow(tenant, time.Now())
	if ok {
		return false
	}
	secs := int(retryAfter/time.Second) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErrorCode(w, http.StatusTooManyRequests, "rate_limited",
		"tenant %s over its request budget; retry in %ds",
		tenancy.Display(tenant), secs)
	return true
}

// --- response writer wrappers ---
//
// Both wrappers forward Flush so the SSE and routing-watch streams
// keep working through the chain, and Unwrap, so that
// http.ResponseController reaches the connection: a telemetry stream
// enables full duplex through them.

// statusRecorder captures the response status and size for the log
// line.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.wrote = true
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// envelopeHandler converts the mux's own plain-text 404 (no route) and
// 405 (wrong method) bodies into the typed error envelope, so every
// error the API surface produces has the same shape. Handler-written
// errors pass through untouched: writeJSON sets the JSON content type
// before WriteHeader, which is the tell.
type envelopeHandler struct {
	next http.Handler
}

func (eh *envelopeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	eh.next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
}

type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool
}

func (ew *envelopeWriter) WriteHeader(code int) {
	if ew.wroteHeader {
		return
	}
	ew.wroteHeader = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(ew.Header().Get("Content-Type"), "application/json") {
		ew.intercepted = true
		ew.Header().Set("Content-Type", "application/json")
		ew.Header().Del("Content-Length")
		ew.Header().Del("X-Content-Type-Options")
		ew.ResponseWriter.WriteHeader(code)
		msg := "no such route"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed for this route"
		}
		writeErrorTo(ew.ResponseWriter, errorCode(code), msg)
		return
	}
	ew.ResponseWriter.WriteHeader(code)
}

func (ew *envelopeWriter) Write(b []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.intercepted {
		// Swallow the mux's plain-text body; the envelope already went out.
		return len(b), nil
	}
	return ew.ResponseWriter.Write(b)
}

func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (ew *envelopeWriter) Unwrap() http.ResponseWriter { return ew.ResponseWriter }
