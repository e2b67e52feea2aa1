package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"contexp/internal/fleet"
	"contexp/internal/wire"
)

// --- distributed data plane surface ---
//
// GET  /v1/routing/watch      long-lived stream of routing frames
// GET  /v1/agents             connected-agent registry
// POST /v1/agents/heartbeat   agent lease renewal + applied-version ack
//
// The watch stream speaks the wire snapshot codec: on connect the agent
// receives either a full snapshot or (when it reports a recent enough
// lastApplied version, from this process's epoch) the delta chain from
// there, then one delta per table swap and periodic heartbeats. Frames
// are self-delimiting, so the stream is just frames back to back with a
// flush after each.

// handleRoutingWatch streams routing frames to one agent until the
// agent disconnects, the hub drops it for lagging, or the daemon shuts
// down.
func (s *Server) handleRoutingWatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("agent")
	if id == "" {
		writeError(w, http.StatusBadRequest, "agent query parameter is required")
		return
	}
	var lastApplied uint64
	if raw := r.URL.Query().Get("lastApplied"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "lastApplied: %v", err)
			return
		}
		lastApplied = v
	}
	// A version names a table only within the process that published
	// it: one from before a restart gets a full snapshot, even of a table
	// this process has not yet written to.
	epoch := s.cfg.Fleet.Epoch()
	if r.URL.Query().Get("epoch") != epoch {
		lastApplied = fleet.NoVersion
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub, err := s.cfg.Fleet.Watch(id, r.RemoteAddr, lastApplied)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer s.cfg.Fleet.Unwatch(sub)

	w.Header().Set("Content-Type", wire.StreamContentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(wire.EpochHeader, epoch)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case frame, open := <-sub.Frames():
			if !open {
				return // hub shutdown or lag drop: agent reconnects and catches up
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleAgents lists the fleet registry, in the same {items, nextCursor}
// shape as GET /v1/runs. Agents sort by ID, so the cursor is simply the
// last ID of the previous page.
func (s *Server) handleAgents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultListLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", raw)
			return
		}
		limit = min(n, maxListLimit)
	}
	cursor := q.Get("cursor")

	agents := s.cfg.Fleet.Agents()
	items := agents[:0:0]
	var nextCursor string
	for _, a := range agents {
		if cursor != "" && a.ID <= cursor {
			continue
		}
		if len(items) == limit {
			nextCursor = items[len(items)-1].ID
			break
		}
		items = append(items, a)
	}
	resp := map[string]any{
		"currentVersion": s.cfg.Fleet.Version(),
		"items":          items,
	}
	if nextCursor != "" {
		resp["nextCursor"] = nextCursor
	}
	writeJSON(w, http.StatusOK, resp)
}

// Heartbeat is an agent's periodic self-report: which snapshot version
// its table has applied and the epoch that numbered it, how much traffic
// it has resolved, and whether it considers itself stale (fail-static
// mode after losing the watch stream).
type Heartbeat struct {
	ID       string `json:"id"`
	Addr     string `json:"addr,omitempty"`
	Version  uint64 `json:"version"`
	Epoch    string `json:"epoch,omitempty"`
	Resolves uint64 `json:"resolves"`
	Stale    bool   `json:"stale,omitempty"`
}

// handleAgentHeartbeat records a Heartbeat in the fleet registry.
func (s *Server) handleAgentHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&hb); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"heartbeat larger than %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if hb.ID == "" {
		writeError(w, http.StatusBadRequest, "id is required")
		return
	}
	s.cfg.Fleet.Ack(hb.ID, hb.Addr, hb.Epoch, hb.Version, hb.Resolves, hb.Stale)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"currentVersion": s.cfg.Fleet.Version(),
	})
}

// FleetHealth reports the distributed data plane: the published
// snapshot version, live watch streams, and fan-out counters.
type FleetHealth struct {
	CurrentVersion uint64 `json:"currentVersion"`
	Watchers       int    `json:"watchers"`
	Agents         int    `json:"agents"`
	// ConnectedAgents counts registry entries with a live watch stream;
	// StaleAgents counts agents self-reporting fail-static mode.
	ConnectedAgents int `json:"connectedAgents"`
	StaleAgents     int `json:"staleAgents"`
	// MaxLag is the largest applied-version lag across agents that have
	// acked at least once.
	MaxLag     uint64 `json:"maxLag"`
	Broadcasts uint64 `json:"broadcasts"`
	Heartbeats uint64 `json:"heartbeats"`
	Snapshots  uint64 `json:"snapshots"`
	CatchUps   uint64 `json:"catchUps"`
	Lagged     uint64 `json:"lagged"`
}

// fleetHealth condenses the hub's stats and registry for /healthz.
func fleetHealth(h *fleet.Hub) *FleetHealth {
	st := h.Stats()
	fh := &FleetHealth{
		CurrentVersion: st.CurrentVersion,
		Watchers:       st.Watchers,
		Agents:         st.Agents,
		Broadcasts:     st.Broadcasts,
		Heartbeats:     st.Heartbeats,
		Snapshots:      st.Snapshots,
		CatchUps:       st.CatchUps,
		Lagged:         st.Lagged,
	}
	for _, a := range h.Agents() {
		if a.Connected {
			fh.ConnectedAgents++
		}
		if a.Stale {
			fh.StaleAgents++
		}
		if !a.LastAck.IsZero() && a.Lag > fh.MaxLag {
			fh.MaxLag = a.Lag
		}
	}
	return fh
}
