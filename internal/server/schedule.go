package server

import (
	"net/http"
	"strconv"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/tenancy"
)

// This file serves the live scheduler: the queue of admitted-but-
// waiting strategies, the running set, each waiting strategy's
// projected start, and a change stream.
//
//	GET /v1/schedule                 queue + running + projection (JSON)
//	GET /v1/schedule?format=gantt    ASCII Gantt chart (text/plain)
//	GET /v1/schedule/events          schedule snapshots as SSE
//
// The endpoints exist only when the server is configured with a
// Scheduler.

// handleSchedule reports the scheduler snapshot. With ?format=gantt it
// renders the projection as an ASCII chart (one row per run on a
// wall-clock axis, bar height = traffic share). When auth is on, the
// JSON view is scoped to the caller's entries — nothing in it depends
// on another tenant's, since every scheduler budget is per tenant; the
// gantt chart stays whole-plant (it names runs by tenant-qualified key
// only — operator-grade metadata, consistent with /v1/admin/tenants).
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "gantt" {
		width := 72
		if ws := r.URL.Query().Get("width"); ws != "" {
			if n, err := strconv.Atoi(ws); err == nil && n > 8 && n <= 512 {
				width = n
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.cfg.Scheduler.Gantt(width)))
		return
	}
	snap := s.cfg.Scheduler.Snapshot()
	if s.cfg.Auth != nil {
		snap = scopeSnapshot(snap, reqTenant(r))
	}
	writeJSON(w, http.StatusOK, snap)
}

// scopeSnapshot trims a schedule snapshot to one tenant's entries.
func scopeSnapshot(snap bifrost.ScheduleSnapshot, tenant string) bifrost.ScheduleSnapshot {
	running := make([]bifrost.ScheduledRunView, 0, len(snap.Running))
	for _, rv := range snap.Running {
		if rv.Tenant == tenant {
			running = append(running, rv)
		}
	}
	queue := make([]bifrost.QueueEntryView, 0, len(snap.Queue))
	for _, qv := range snap.Queue {
		if qv.Tenant == tenant {
			queue = append(queue, qv)
		}
	}
	recent := make([]bifrost.QueueEvent, 0, len(snap.Recent))
	for _, ev := range snap.Recent {
		if owner, _ := tenancy.Split(ev.Name); owner == tenant {
			recent = append(recent, ev)
		}
	}
	snap.Running, snap.Queue, snap.Recent = running, queue, recent
	return snap
}

// handleScheduleEvents streams schedule changes as server-sent events:
// one "schedule" message per observable change (submission, launch,
// cancellation, completion), carrying the full snapshot. The first
// message is the current state, so a client never starts blind.
func (s *Server) handleScheduleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	tenant := reqTenant(r)
	emit := func(snap bifrost.ScheduleSnapshot) {
		if s.cfg.Auth != nil {
			snap = scopeSnapshot(snap, tenant)
		}
		writeSSE(w, int(snap.Version), "schedule", snap)
		flusher.Flush()
	}
	last := s.cfg.Scheduler.Snapshot()
	emit(last)

	// Each tick takes a fresh snapshot rather than polling Version():
	// Snapshot itself notices (and versions) changes no pump observed,
	// such as runs launched around the scheduler finishing or starting.
	ticker := time.NewTicker(s.cfg.EventPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if snap := s.cfg.Scheduler.Snapshot(); snap.Version != last.Version {
				last = snap
				emit(snap)
			}
		}
	}
}
