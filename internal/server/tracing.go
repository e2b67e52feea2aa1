package server

import (
	"net/http"
	"time"

	"contexp/internal/tenancy"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// This file is the tracing face of the control plane: batched span
// ingestion into the bounded live collector (the Zipkin-ingest stand-in
// of the Chapter 5 pipeline) and the per-run topology assessment
// surface the analysis plane computes from those spans.

// SpanObservation is one ingested span, the wire form of tracing.Span.
// At defaults to the server's current time minus the duration.
type SpanObservation struct {
	TraceID  uint64    `json:"traceId"`
	SpanID   uint64    `json:"spanId"`
	ParentID uint64    `json:"parentId,omitempty"` // 0 for root spans
	Service  string    `json:"service"`
	Version  string    `json:"version"`
	Endpoint string    `json:"endpoint"`
	At       time.Time `json:"at,omitzero"`
	// DurationMs is the span's duration in milliseconds.
	DurationMs float64 `json:"durationMs"`
	Error      bool    `json:"error,omitempty"`
}

// handleIngestSpans records a batch of spans into the live collector —
// the ingestion path real instrumented services use in place of the
// simulator's in-process self-reporting. As for metrics, a pooled
// binary decoder and a JSON one feed the one tail, recordSpans.
func (s *Server) handleIngestSpans(w http.ResponseWriter, r *http.Request) {
	if isBinaryBatch(r) {
		dec := wire.GetSpansDecoder()
		defer wire.PutSpansDecoder(dec)
		s.ingestFrames(w, r, func(w http.ResponseWriter, frame []byte) {
			spans, err := dec.Decode(frame)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			s.recordSpans(w, r, spans)
		})
		return
	}
	var batch struct {
		Spans []SpanObservation `json:"spans"`
	}
	if !s.readJSONBatch(w, r, &batch) {
		return
	}
	spans := make([]tracing.Span, len(batch.Spans))
	for i, o := range batch.Spans {
		spans[i] = tracing.Span{
			TraceID:  tracing.TraceID(o.TraceID),
			SpanID:   tracing.SpanID(o.SpanID),
			ParentID: tracing.SpanID(o.ParentID),
			Service:  o.Service,
			Version:  o.Version,
			Endpoint: o.Endpoint,
			Start:    o.At,
			Duration: time.Duration(o.DurationMs * float64(time.Millisecond)),
			Err:      o.Error,
		}
	}
	s.recordSpans(w, r, spans)
}

// recordSpans is the ingest tail both span decoders share: validation
// before anything reaches the collector, default start time, tenant
// qualification, one RecordBatch. Spans beyond the collector's cap are
// dropped (and counted), never blocking the sender.
func (s *Server) recordSpans(w http.ResponseWriter, r *http.Request, spans []tracing.Span) {
	if len(spans) == 0 {
		writeError(w, http.StatusBadRequest, "no spans")
		return
	}
	now := time.Now()
	tenant := reqTenant(r)
	for i := range spans {
		sp := &spans[i]
		if sp.TraceID == 0 || sp.SpanID == 0 {
			writeError(w, http.StatusBadRequest, "span %d: traceId and spanId are required", i)
			return
		}
		if sp.Service == "" || sp.Version == "" || sp.Endpoint == "" {
			writeError(w, http.StatusBadRequest,
				"span %d: service, version, and endpoint are required", i)
			return
		}
		if sp.Start.IsZero() {
			sp.Start = now.Add(-sp.Duration)
		}
		// Namespace the span into the submitting tenant's topology: run
		// assessments register tenant-qualified service names, so tenant
		// spans must match them (and can never pollute another tenant's
		// interaction graph).
		sp.Service = tenancy.Qualify(tenant, sp.Service)
	}
	accepted := s.cfg.Traces.RecordBatch(spans)
	writeJSON(w, http.StatusAccepted, map[string]int{
		"accepted": accepted,
		"dropped":  len(spans) - accepted,
	})
}

// handleRunHealth serves the live topology assessment of one run: the
// incremental baseline/candidate interaction graphs, the classified and
// ranked changes, and the rendered report (?format=report for the text
// form). The assessment exists for every run launched while live
// tracing is enabled, metric-only strategies included.
func (s *Server) handleRunHealth(w http.ResponseWriter, r *http.Request) {
	key := reqRunKey(r)
	if _, ok := s.cfg.Engine.Get(key); !ok {
		writeError(w, http.StatusNotFound, "no run named %q", r.PathValue("name"))
		return
	}
	view, err := s.cfg.Health.View(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if r.URL.Query().Get("format") == "report" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(view.Report))
		return
	}
	writeJSON(w, http.StatusOK, view)
}
