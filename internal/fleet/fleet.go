// Package fleet is the control-plane half of the distributed data
// plane: it turns the router.Table's copy-on-write snapshot swaps into
// a stream of versioned wire frames and fans them out to a fleet of
// edge agents, while keeping a registry of who is connected, what
// version each agent has applied, and how far behind the brain it is.
//
// The Hub subscribes to the table's change notification. On every swap
// it exports the table, diffs against the previous export, encodes one
// delta frame, and broadcasts it to every subscriber. A routing table is
// state, not an event log: an agent that connects behind the current
// version gets one snapshot of the current table, and when a
// subscriber's buffer fills, the hub replaces the frames it has not yet
// taken with that same snapshot and leaves its stream open. So a
// reconnecting or slow reader skips to the latest table, and the hub
// never blocks the mutation path or other agents on it.
//
// Periodic heartbeat frames carry the current version through idle
// stretches. They double as the fleet's lease: an agent that stops
// seeing frames knows it is partitioned and fails static (keeps serving
// its last-applied snapshot) rather than guessing.
//
// The registry holds the fleet, not its history: an agent with no
// stream whose last heartbeat and last connect are both older than
// agentExpiry is forgotten when a new agent registers.
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
	// SendBuffer is the per-subscriber frame buffer (default 32). When
	// it fills, the frames still queued give way to one snapshot of the
	// current table, so a subscriber that stops draining costs the hub
	// at most one buffer and keeps its stream.
	SendBuffer int
}

// agentExpiry is how long the registry keeps an agent that has no
// watch stream after both its last heartbeat and its last connect.
const agentExpiry = 10 * time.Minute

// AgentState is the registry's view of one agent.
type AgentState struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// Connected reports a live watch stream.
	Connected   bool      `json:"connected"`
	ConnectedAt time.Time `json:"connectedAt,omitzero"`
	// SentVersion is the latest snapshot version queued on the agent's
	// watch stream; AppliedVersion is the version the agent last
	// acknowledged as installed in its local table. The gap between
	// them is in-flight propagation.
	SentVersion    uint64 `json:"sentVersion"`
	AppliedVersion uint64 `json:"appliedVersion"`
	// Epoch names the control-plane process whose table the agent last
	// acknowledged applying (Hub.Epoch); "" before its first snapshot.
	Epoch string `json:"epoch,omitempty"`
	// Lag counts the versions of the control plane's table the agent
	// has yet to apply, within the hub's epoch: the table's version
	// minus AppliedVersion. A version from another epoch, or one the
	// table has not reached, counts as none applied. A table the hub
	// cannot encode is not published, so it shows here as lag.
	Lag uint64 `json:"lag"`
	// LastAck is when the agent last posted a heartbeat.
	LastAck time.Time `json:"lastAck,omitzero"`
	// Resolves is the agent's self-reported lifetime Resolve count.
	Resolves uint64 `json:"resolves"`
	// Stale is the agent's self-reported fail-static flag: it has not
	// seen a frame within its lease and is serving its last snapshot.
	Stale bool `json:"stale,omitempty"`

	// watch is the agent's current stream, nil while it has none; an
	// older stream of the same agent that ends leaves it alone.
	watch *Subscription
}

// Subscription is one watcher's end of the frame stream. The hub sends
// on and closes frames only under its lock.
type Subscription struct {
	frames chan []byte
	agent  *AgentState
}

// Frames is the stream of encoded wire frames (snapshot, delta, or
// heartbeat). It closes at Unwatch, at the hub's shutdown, or when its
// buffer is full and the table cannot be encoded as a snapshot.
func (s *Subscription) Frames() <-chan []byte { return s.frames }

// Stats is the fleet's status, the hub's counters and its registry read
// at one instant; /healthz serves it as its fleet block.
type Stats struct {
	// CurrentVersion is the last published snapshot version.
	CurrentVersion uint64 `json:"currentVersion"`
	// Watchers is how many watch streams are live right now; Agents how
	// many agents the registry holds.
	Watchers int `json:"watchers"`
	Agents   int `json:"agents"`
	// ConnectedAgents counts registry entries with a live watch stream;
	// StaleAgents counts agents self-reporting fail-static mode.
	ConnectedAgents int `json:"connectedAgents"`
	StaleAgents     int `json:"staleAgents"`
	// MaxLag is the largest Lag (AgentState) across agents that have
	// acked at least once.
	MaxLag uint64 `json:"maxLag"`
	// Broadcasts counts delta fan-outs, Heartbeats heartbeat fan-outs,
	// Snapshots full snapshots queued (at Watch, or in place of a full
	// buffer). CatchUps and Lagged are always 0: an agent that connects
	// behind gets a snapshot, not a replay, and a subscriber that stops
	// draining is caught up, not dropped; the fields stay because
	// /healthz and the benchmark report them.
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
	snap   []byte               // snapshot frame of last, once encoded
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
			h.dropLocked(sub)
		}
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
		// distributed. Keep the diff base so the next publish retries;
		// heartbeats go on carrying the last published version, while
		// the registry measures lag against the table, so every agent
		// shows as behind until the table is encodable again.
		wire.PutDeltaEncoder(enc)
		return
	}
	// The encoder's buffer is reused; subscribers need a stable copy.
	frame = append([]byte(nil), frame...)
	wire.PutDeltaEncoder(enc)
	h.last = cur
	h.snap = nil
	h.stats.Broadcasts++
	for sub := range h.subs {
		h.sendLocked(sub, frame)
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
		h.sendLocked(sub, frame)
	}
}

// sendLocked queues frame on sub without blocking (hub lock held). On a
// full buffer it drains the frames still queued and queues one snapshot
// of the current table in their place. A snapshot is absolute, so a
// frame the reader took meanwhile does no harm, and later deltas start
// from its version. Every frame the hub sends leaves the stream at the
// current version, so that is the agent's sent version.
func (h *Hub) sendLocked(sub *Subscription, frame []byte) {
	select {
	case sub.frames <- frame:
	default:
		snap, err := h.snapshotLocked()
		if err != nil {
			h.dropLocked(sub)
			return
		}
		for len(sub.frames) > 0 {
			select {
			case <-sub.frames:
			default:
			}
		}
		sub.frames <- snap
		h.stats.Snapshots++
	}
	sub.agent.SentVersion = h.last.Version
}

// snapshotLocked returns the snapshot frame of the current table,
// encoded at most once per published version (hub lock held).
func (h *Hub) snapshotLocked() ([]byte, error) {
	if h.snap != nil {
		return h.snap, nil
	}
	enc := wire.GetSnapshotEncoder()
	defer wire.PutSnapshotEncoder(enc)
	frame, err := enc.Encode(h.last)
	if err != nil {
		return nil, err
	}
	h.snap = append([]byte(nil), frame...)
	return h.snap, nil
}

// dropLocked unregisters sub and ends its stream, if it is still
// registered (hub lock held). Only the agent's current stream marks it
// disconnected.
func (h *Hub) dropLocked(sub *Subscription) {
	if _, ok := h.subs[sub]; !ok {
		return
	}
	delete(h.subs, sub)
	close(sub.frames)
	if sub.agent.watch == sub {
		sub.agent.watch = nil
	}
}

// Watch opens a stream for agent id connecting from addr. lastApplied
// is the version the agent's table currently sits at (0 for a fresh
// agent, NoVersion for a table of another epoch): an agent at the
// current version gets a heartbeat, any other one snapshot of the
// current table. The caller must Unwatch when the stream ends.
func (h *Hub) Watch(id, addr string, lastApplied uint64) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Queue the first frame under the lock: nothing can publish between
	// it and registration, so the stream has no gap and no duplicate.
	var first []byte
	if lastApplied == h.last.Version {
		// Already current: confirm with a heartbeat so the agent's
		// lease starts immediately.
		first = wire.EncodeHeartbeat(h.last.Version)
	} else {
		var err error
		if first, err = h.snapshotLocked(); err != nil {
			return nil, err
		}
		h.stats.Snapshots++
	}
	st := h.agents[id]
	if st == nil {
		st = &AgentState{ID: id}
		h.agents[id] = st
	}
	sub := &Subscription{frames: make(chan []byte, h.cfg.SendBuffer), agent: st}
	h.sendLocked(sub, first)
	h.subs[sub] = struct{}{}
	st.Addr = addr
	st.watch = sub
	st.ConnectedAt = time.Now()
	return sub, nil
}

// Unwatch ends a stream and releases its registry slot.
func (h *Hub) Unwatch(sub *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropLocked(sub)
}

// Ack records an agent's heartbeat: the snapshot version its table has
// applied, in the epoch that numbered it, plus its self-reported
// counters. Agents that never opened a watch stream (or whose stream
// dropped) still register here. A new agent's first heartbeat forgets
// every agent with no stream whose last heartbeat and last connect are
// both older than agentExpiry.
func (h *Hub) Ack(id, addr, epoch string, applied, resolves uint64, stale bool) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.agents[id]
	if st == nil {
		cutoff := now.Add(-agentExpiry)
		for other, a := range h.agents {
			if a.watch == nil && a.LastAck.Before(cutoff) && a.ConnectedAt.Before(cutoff) {
				delete(h.agents, other)
			}
		}
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
	st.LastAck = now
}

// lagLocked is st's Lag against the table at version current (hub lock
// held).
func (h *Hub) lagLocked(st *AgentState, current uint64) uint64 {
	if st.Epoch == h.epoch && st.AppliedVersion <= current {
		return current - st.AppliedVersion
	}
	return current
}

// Agents returns the registry sorted by agent ID.
func (h *Hub) Agents() []AgentState {
	h.mu.Lock()
	defer h.mu.Unlock()
	current := h.table.Version()
	out := make([]AgentState, 0, len(h.agents))
	for _, st := range h.agents {
		view := *st
		view.Connected, view.watch = st.watch != nil, nil
		view.Lag = h.lagLocked(st, current)
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

// Stats returns the hub's counters and a summary of its registry, in
// one pass under the hub lock.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	st.CurrentVersion = h.last.Version
	st.Watchers = len(h.subs)
	st.Agents = len(h.agents)
	current := h.table.Version()
	for _, a := range h.agents {
		if a.watch != nil {
			st.ConnectedAgents++
		}
		if a.Stale {
			st.StaleAgents++
		}
		if !a.LastAck.IsZero() {
			st.MaxLag = max(st.MaxLag, h.lagLocked(a, current))
		}
	}
	return st
}
