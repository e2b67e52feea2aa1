package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// handleRunEvents streams a run's audit trail as server-sent events.
// Each bifrost.Event becomes one SSE message whose event field is the
// bifrost event type and whose data is the EventView JSON; a final
// "run-status" message carries the terminal RunStatus. The stream ends
// when the run finishes or the client disconnects.
//
// The engine keeps the full event log per run — including history
// rebuilt from the write-ahead journal after a restart — so a client
// connecting mid-run, after the run finished, or after a crash
// recovery still receives every event from the beginning: the stream
// is a replay plus a live tail. Message i carries "id: i", and a client
// that reconnects with Last-Event-ID: i — as an EventSource does by
// itself — is sent the events after i instead of the replay. An id that
// is not a non-negative integer is ignored, one past the trail clamped.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.cfg.Engine.Get(reqRunKey(r))
	if !ok {
		writeError(w, http.StatusNotFound, "no run named %q", r.PathValue("name"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sent := 0
	if id, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && id >= 0 {
		sent = min(id, run.EventCount()-1) + 1
	}
	emit := func() {
		for _, ev := range run.EventsFrom(sent) {
			writeSSE(w, sent, string(ev.Type), eventView(ev))
			sent++
		}
		flusher.Flush()
	}
	emit()

	ticker := time.NewTicker(s.cfg.EventPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-run.Done():
			emit()
			writeSSE(w, sent, "run-status", map[string]string{"status": run.Status().String()})
			flusher.Flush()
			return
		case <-ticker.C:
			emit()
		}
	}
}

// writeSSE writes one server-sent event. Data is a single JSON line, so
// no further framing is needed.
func writeSSE(w http.ResponseWriter, id int, event string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		payload = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, payload)
}
