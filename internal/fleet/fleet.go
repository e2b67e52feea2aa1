// Package fleet is the control-plane half of the distributed data
// plane: it turns the router.Table's copy-on-write snapshot swaps into
// a stream of versioned wire frames and fans them out to a fleet of
// edge agents, while keeping a registry of who is connected, what
// version each agent has applied, and how far behind the brain it is.
//
// The Hub subscribes to the table's change notification. On every swap
// it exports the table, diffs against the previous export, encodes one
// delta frame, and broadcasts it to every subscriber; a ring of recent
// deltas lets a reconnecting agent catch up from its last applied
// version without paying for a full snapshot. Agents that fall behind a
// subscriber buffer are disconnected (their stream ends) and reconnect
// into the catch-up path — the hub never blocks the mutation path or
// other agents on a slow consumer.
//
// Periodic heartbeat frames carry the current version through idle
// stretches. They double as the fleet's lease: an agent that stops
// seeing frames knows it is partitioned and fails static (keeps serving
// its last-applied snapshot) rather than guessing.
package fleet

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"

	"contexp/internal/router"
	"contexp/internal/wire"
)

// Config parameterizes a Hub.
type Config struct {
	// Table is the routing table to distribute (required).
	Table *router.Table
	// HeartbeatInterval is how often idle watchers receive a heartbeat
	// frame (default 5s). It must stay below the agents' lease: an
	// agent drops a stream silent for a whole lease (default 15s) and
	// reconnects.
	HeartbeatInterval time.Duration
	// DeltaRing is how many recent delta frames are retained for
	// catch-up (default 128). A reconnecting agent whose last applied
	// version fell off the ring resyncs from a full snapshot.
	DeltaRing int
	// SendBuffer is the per-subscriber frame buffer (default 32). A
	// subscriber that stops draining loses its stream once the buffer
	// fills, never the hub.
	SendBuffer int
}

// cachedDelta is one retained delta frame keyed by its version span.
type cachedDelta struct {
	from, to uint64
	frame    []byte
}

// AgentState is the registry's view of one agent.
type AgentState struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// Connected reports a live watch stream.
	Connected   bool      `json:"connected"`
	ConnectedAt time.Time `json:"connectedAt,omitzero"`
	// SentVersion is the latest snapshot version written to the agent's
	// watch stream; AppliedVersion is the version the agent last
	// acknowledged as installed in its local table. The gap between
	// them is in-flight propagation.
	SentVersion    uint64 `json:"sentVersion"`
	AppliedVersion uint64 `json:"appliedVersion"`
	// Epoch names the control-plane process whose table the agent last
	// acknowledged applying (Hub.Epoch); "" before its first snapshot.
	Epoch string `json:"epoch,omitempty"`
	// Lag counts the versions of the hub's epoch the agent has yet to
	// apply: the current version minus AppliedVersion. A version from
	// another epoch, or one the hub never published, counts as none
	// applied.
	Lag uint64 `json:"lag"`
	// LastAck is when the agent last posted a heartbeat.
	LastAck time.Time `json:"lastAck,omitzero"`
	// Resolves is the agent's self-reported lifetime Resolve count.
	Resolves uint64 `json:"resolves"`
	// Stale is the agent's self-reported fail-static flag: it has not
	// seen a frame within its lease and is serving its last snapshot.
	Stale bool `json:"stale,omitempty"`
}

// Subscription is one watcher's end of the frame stream.
type Subscription struct {
	frames chan []byte
	hub    *Hub
	id     string

	mu      sync.Mutex
	lagged  bool
	closed  bool
	sentVer uint64
}

// Frames is the stream of encoded wire frames (snapshot, delta, or
// heartbeat). It closes when the hub shuts down or the subscriber fell
// behind; Lagged distinguishes the two.
func (s *Subscription) Frames() <-chan []byte { return s.frames }

// Lagged reports whether the hub dropped this subscriber for not
// draining its buffer. The agent should reconnect and catch up.
func (s *Subscription) Lagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagged
}

// send queues a frame, closing the stream instead of blocking when the
// buffer is full. Returns false when the subscription is finished.
func (s *Subscription) send(frame []byte, version uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	select {
	case s.frames <- frame:
		if version > s.sentVer {
			s.sentVer = version
		}
		return true
	default:
		s.lagged = true
		s.closed = true
		close(s.frames)
		return false
	}
}

// close ends the stream (idempotent).
func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.frames)
	}
}

// sentVersion is the highest version written to this stream.
func (s *Subscription) sentVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sentVer
}

// Stats is the hub's health surface.
type Stats struct {
	// CurrentVersion is the last published snapshot version.
	CurrentVersion uint64 `json:"currentVersion"`
	// Watchers is how many watch streams are live right now; Agents how
	// many distinct agents the registry has ever seen.
	Watchers int `json:"watchers"`
	Agents   int `json:"agents"`
	// Broadcasts counts delta fan-outs, Heartbeats heartbeat fan-outs,
	// Snapshots full-snapshot syncs served, CatchUps delta-chain
	// catch-ups served, Lagged subscribers dropped for not draining.
	Broadcasts uint64 `json:"broadcasts"`
	Heartbeats uint64 `json:"heartbeats"`
	Snapshots  uint64 `json:"snapshots"`
	CatchUps   uint64 `json:"catchUps"`
	Lagged     uint64 `json:"lagged"`
}

// Hub distributes routing snapshots and tracks the agent fleet. Create
// with New, release with Close.
type Hub struct {
	cfg   Config
	table *router.Table
	epoch string

	mu     sync.Mutex
	last   router.TableSnapshot // latest export, the diff base
	ring   []cachedDelta
	subs   map[*Subscription]struct{}
	agents map[string]*AgentState
	stats  Stats

	unsubscribe func()
	stop        chan struct{}
	done        chan struct{}
	closeOnce   sync.Once
}

// New creates a Hub distributing table and starts its publisher
// goroutine.
func New(cfg Config) *Hub {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.DeltaRing <= 0 {
		cfg.DeltaRing = 128
	}
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = 32
	}
	h := &Hub{
		cfg:    cfg,
		table:  cfg.Table,
		epoch:  strconv.FormatUint(rand.Uint64(), 36),
		last:   cfg.Table.Export(),
		subs:   make(map[*Subscription]struct{}),
		agents: make(map[string]*AgentState),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	changes, cancel := cfg.Table.Subscribe()
	h.unsubscribe = cancel
	go h.run(changes)
	return h
}

// Epoch names this hub, and so the control-plane process that holds
// it: a version is the version of a table only within the epoch that
// numbered it. Watch streams carry it (wire.EpochHeader), and agents
// send it back with the version they hold.
func (h *Hub) Epoch() string { return h.epoch }

// NoVersion is the lastApplied of an agent whose table is not one of
// this hub's (another epoch's, or none): no table version reaches it, so
// Watch answers it with a full snapshot, the hub's empty table included.
const NoVersion = math.MaxUint64

// Close stops the publisher and ends every live stream. Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		h.unsubscribe()
		close(h.stop)
		<-h.done
		h.mu.Lock()
		for sub := range h.subs {
			sub.close()
		}
		clear(h.subs)
		h.mu.Unlock()
	})
}

// run is the publisher loop: table change notifications become delta
// broadcasts, the ticker becomes heartbeats.
func (h *Hub) run(changes <-chan struct{}) {
	defer close(h.done)
	ticker := time.NewTicker(h.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-changes:
			h.publish()
		case <-ticker.C:
			h.heartbeat()
		}
	}
}

// publish diffs the table against the last export and broadcasts one
// delta frame. Change notifications coalesce, so a single delta may
// span several versions.
func (h *Hub) publish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.table.Export()
	if cur.Version == h.last.Version {
		return
	}
	delta := router.DiffSnapshots(h.last, cur)
	enc := wire.GetDeltaEncoder()
	frame, err := enc.Encode(delta)
	if err != nil {
		// A route with a custom (non-encodable) matcher cannot be
		// distributed; keep the diff base so the next publish retries,
		// and let heartbeats carry the version gap — agents see
		// themselves lagging and resync when the table becomes
		// encodable again.
		wire.PutDeltaEncoder(enc)
		return
	}
	// The encoder's buffer is reused; the ring and subscribers need a
	// stable copy.
	frame = append([]byte(nil), frame...)
	wire.PutDeltaEncoder(enc)
	h.last = cur
	h.ring = append(h.ring, cachedDelta{from: delta.FromVersion, to: delta.ToVersion, frame: frame})
	if len(h.ring) > h.cfg.DeltaRing {
		h.ring = h.ring[len(h.ring)-h.cfg.DeltaRing:]
	}
	h.stats.Broadcasts++
	for sub := range h.subs {
		if !sub.send(frame, cur.Version) {
			h.dropLocked(sub)
		}
	}
}

// heartbeat fans the current version out to every subscriber.
func (h *Hub) heartbeat() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}
	frame := wire.EncodeHeartbeat(h.last.Version)
	h.stats.Heartbeats++
	for sub := range h.subs {
		if !sub.send(frame, 0) {
			h.dropLocked(sub)
		}
	}
}

// dropLocked unregisters a finished subscriber (hub lock held).
func (h *Hub) dropLocked(sub *Subscription) {
	if _, ok := h.subs[sub]; !ok {
		return
	}
	delete(h.subs, sub)
	if sub.Lagged() {
		h.stats.Lagged++
	}
	if st, ok := h.agents[sub.id]; ok && st.Connected {
		st.Connected = false
		st.SentVersion = sub.sentVersion()
	}
}

// Watch opens a stream for agent id connecting from addr. lastApplied
// is the version the agent's table currently sits at (0 for a fresh
// agent): when the ring still holds a contiguous delta chain from that
// version the initial frames are exactly those deltas, otherwise the
// stream starts with one full snapshot. The caller must Unwatch when
// the stream ends.
func (h *Hub) Watch(id, addr string, lastApplied uint64) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &Subscription{
		frames: make(chan []byte, h.cfg.SendBuffer),
		hub:    h,
		id:     id,
	}
	// Assemble initial frames under the lock: nothing can publish
	// between the catch-up computation and registration, so the stream
	// has no gap and no duplicate.
	switch chain, ok := h.chainLocked(lastApplied); {
	case lastApplied == h.last.Version:
		// Already current: confirm with a heartbeat so the agent's
		// lease starts immediately.
		sub.send(wire.EncodeHeartbeat(h.last.Version), 0)
	case ok:
		for _, frame := range chain {
			sub.send(frame, 0)
		}
		sub.mu.Lock()
		sub.sentVer = h.last.Version
		sub.mu.Unlock()
		h.stats.CatchUps++
	default:
		enc := wire.GetSnapshotEncoder()
		frame, err := enc.Encode(h.last)
		if err != nil {
			wire.PutSnapshotEncoder(enc)
			return nil, err
		}
		frame = append([]byte(nil), frame...)
		wire.PutSnapshotEncoder(enc)
		sub.send(frame, h.last.Version)
		h.stats.Snapshots++
	}
	h.subs[sub] = struct{}{}
	st := h.agents[id]
	if st == nil {
		st = &AgentState{ID: id}
		h.agents[id] = st
	}
	st.Addr = addr
	st.Connected = true
	st.ConnectedAt = time.Now()
	st.SentVersion = h.last.Version
	return sub, nil
}

// chainLocked returns the retained delta frames forming a contiguous
// chain from version `from` to the current version, or ok=false when
// the ring cannot bridge the gap. The initial frames must fit the send
// buffer — a chain longer than that would close the stream it is meant
// to seed.
func (h *Hub) chainLocked(from uint64) ([][]byte, bool) {
	if from == 0 || from > h.last.Version {
		return nil, false
	}
	var chain [][]byte
	at := from
	for _, cd := range h.ring {
		if cd.to <= at {
			continue
		}
		if cd.from != at {
			return nil, false // gap: the needed delta fell off the ring
		}
		chain = append(chain, cd.frame)
		at = cd.to
	}
	if at != h.last.Version || len(chain) >= h.cfg.SendBuffer {
		return nil, false
	}
	return chain, true
}

// Unwatch ends a stream and releases its registry slot.
func (h *Hub) Unwatch(sub *Subscription) {
	h.mu.Lock()
	h.dropLocked(sub)
	h.mu.Unlock()
	sub.close()
}

// Ack records an agent's heartbeat: the snapshot version its table has
// applied, in the epoch that numbered it, plus its self-reported
// counters. Agents that never opened a watch stream (or whose stream
// dropped) still register here.
func (h *Hub) Ack(id, addr, epoch string, applied, resolves uint64, stale bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.agents[id]
	if st == nil {
		st = &AgentState{ID: id}
		h.agents[id] = st
	}
	if addr != "" {
		st.Addr = addr
	}
	st.AppliedVersion = applied
	st.Epoch = epoch
	st.Resolves = resolves
	st.Stale = stale
	st.LastAck = time.Now()
}

// Agents returns the registry sorted by agent ID, lag computed against
// the current published version within the hub's epoch.
func (h *Hub) Agents() []AgentState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]AgentState, 0, len(h.agents))
	for _, st := range h.agents {
		view := *st
		view.Lag = h.last.Version
		if view.Epoch == h.epoch && view.AppliedVersion <= h.last.Version {
			view.Lag -= view.AppliedVersion
		}
		out = append(out, view)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Version is the latest published snapshot version.
func (h *Hub) Version() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last.Version
}

// Stats returns the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	st.CurrentVersion = h.last.Version
	st.Watchers = len(h.subs)
	st.Agents = len(h.agents)
	return st
}
