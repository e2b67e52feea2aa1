// Package router implements runtime traffic routing, the network-level
// experimentation technique the study's participants named second-most
// (Section 2.5.1) and the mechanism Bifrost builds on to escape feature
// toggles: experimentation logic lives in routing tables, services stay
// black boxes.
//
// A Table maps each service to a Route: an ordered list of match rules
// (user group / header equality), a weighted split across versions with
// sticky per-user assignment, and a set of mirror versions that receive
// duplicated traffic for dark launches. Resolution order is rules
// first (first match wins), then the weighted split; the split hashes
// (user, service, salt) so a user keeps their assigned version for the
// whole experiment, and bumping Route.StickySalt reshuffles users
// between consecutive experiments.
//
// The table is the single source of truth shared by every consumer:
// the Bifrost engine mutates it as phases advance (Set, SetWeights),
// in-process simulations resolve against it directly
// (Resolve), and Proxy exposes it at the wire level — one lightweight
// reverse proxy per service, the sidecar idiom of Section 4.4, reading
// routing identity from the X-User-ID and X-User-Groups headers and
// duplicating dark-launch traffic to mirror versions off the request
// path.
//
// Concurrency model: the table keeps its routes in an immutable
// snapshot behind an atomic pointer. Resolve loads the snapshot and
// reads precompiled routing state — no locks, no allocations — so the
// read path scales linearly with cores under production traffic.
// Mutations serialize on a writer-only mutex, build a fresh snapshot
// (copy-on-write), and publish it atomically; in-flight resolutions
// keep using the snapshot they loaded, the next request sees the new
// one. This is the immutable-config-snapshot idiom of Envoy/Istio-style
// data planes.
//
// Typical wiring:
//
//	table := router.NewTable()
//	_ = table.Set(router.Route{
//	    Service:  "recommendation",
//	    Backends: []router.Backend{{Version: "v1", Weight: 1}},
//	})
//	proxy := router.NewProxy("recommendation", table)
//	_ = proxy.RegisterUpstream("v1", "http://127.0.0.1:9001")
//	// http.ListenAndServe(addr, proxy)
//
// Experiments then shift traffic by mutating the table; in-flight
// proxies pick the change up on the next request.
package router

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"contexp/internal/expmodel"
)

// Request carries the routing-relevant attributes of a user request.
type Request struct {
	UserID string
	Groups []expmodel.UserGroup
	Header http.Header
}

// InGroup reports whether the request's user belongs to g.
func (r *Request) InGroup(g expmodel.UserGroup) bool {
	for _, have := range r.Groups {
		if have == g {
			return true
		}
	}
	return false
}

// Matcher decides whether a rule applies to a request.
type Matcher interface {
	Match(*Request) bool
	String() string
}

// GroupMatcher matches requests whose user belongs to the group.
type GroupMatcher struct {
	Group expmodel.UserGroup
}

var _ Matcher = GroupMatcher{}

// Match implements Matcher.
func (m GroupMatcher) Match(r *Request) bool { return r.InGroup(m.Group) }

// String implements Matcher.
func (m GroupMatcher) String() string { return "group=" + string(m.Group) }

// HeaderMatcher matches requests whose first Key header equals Value.
// Key names a header in any case: a Table stores it in net/http's
// canonical form ("x-qa" becomes "X-Qa"), which is what Match looks up.
type HeaderMatcher struct {
	Key, Value string
}

var _ Matcher = HeaderMatcher{}

// Match implements Matcher.
func (m HeaderMatcher) Match(r *Request) bool {
	var got string
	if vv := r.Header[m.Key]; len(vv) > 0 {
		got = vv[0]
	}
	return got == m.Value
}

// String implements Matcher.
func (m HeaderMatcher) String() string { return "header[" + m.Key + "]=" + m.Value }

// Rule routes matching requests to a fixed version, bypassing the
// weighted split. Rules implement the "specific user groups, regions"
// targeting reported in Section 2.6.
type Rule struct {
	Name    string
	Match   Matcher
	Version string
}

// Backend is one arm of a weighted traffic split.
type Backend struct {
	Version string
	Weight  float64
}

// Route is the routing configuration of one service.
type Route struct {
	Service  string
	Rules    []Rule
	Backends []Backend
	// Mirrors receive a duplicate of every request routed by the
	// weighted split; their responses are discarded (dark launch).
	Mirrors []string
	// StickySalt changes the user→arm hash; bump it to reshuffle
	// assignments between experiments so users don't land in the same
	// bucket across consecutive A/B tests.
	StickySalt string
}

// clone returns a Route whose slices are independent of the receiver's.
// Matcher values inside Rules are shared; they are immutable by
// convention.
func (r Route) clone() Route {
	cp := r
	cp.Rules = append([]Rule(nil), r.Rules...)
	cp.Backends = append([]Backend(nil), r.Backends...)
	cp.Mirrors = append([]string(nil), r.Mirrors...)
	return cp
}

// normalize validates the route, puts header rule keys in canonical
// form and normalizes backend weights to sum 1.
func (r *Route) normalize() error {
	for i, rule := range r.Rules {
		if m, ok := rule.Match.(HeaderMatcher); ok {
			m.Key = http.CanonicalHeaderKey(m.Key)
			r.Rules[i].Match = m
		}
	}
	if len(r.Backends) == 0 {
		return fmt.Errorf("router: route for %q has no backends", r.Service)
	}
	var total float64
	for _, b := range r.Backends {
		if b.Weight < 0 {
			return fmt.Errorf("router: negative weight %v for %s@%s", b.Weight, r.Service, b.Version)
		}
		total += b.Weight
	}
	if total <= 0 {
		return fmt.Errorf("router: route for %q has zero total weight", r.Service)
	}
	// Already-normalized weights pass through bit-identically: a route
	// that traveled control plane → wire → agent and is re-installed
	// must not drift by one ulp per hop (the byte-identity guarantee of
	// the snapshot replay protocol). A sum within epsilon of 1 leaves
	// at most ~1e-9 of probability mass on the fallback arm.
	if math.Abs(total-1) <= 1e-9 {
		return nil
	}
	for i := range r.Backends {
		r.Backends[i].Weight /= total
	}
	return nil
}

// Decision is the outcome of resolving a request.
type Decision struct {
	Version string
	// Mirrors lists versions that must receive a duplicated request.
	// The slice is shared with the table's immutable snapshot; callers
	// must not modify it.
	Mirrors []string
	// Rule is the name of the matching rule, or "" for the weighted split.
	Rule string
	// Sticky is true when the version came from the hash split.
	Sticky bool
}

// compiledRoute is the resolve-ready form of one route: the canonical
// deep-owned Route plus the precomputed split state Resolve walks.
// compiledRoutes are immutable once published in a snapshot.
type compiledRoute struct {
	route Route
	// cum[i] is the cumulative weight through backend i; cum[len-1] ≈ 1.
	cum []float64
	// versions[i] is Backends[i].Version, kept adjacent for the split walk.
	versions []string
}

func compileRoute(route Route) (*compiledRoute, error) {
	cp := route.clone()
	if err := cp.normalize(); err != nil {
		return nil, err
	}
	cr := &compiledRoute{
		route:    cp,
		cum:      make([]float64, len(cp.Backends)),
		versions: make([]string, len(cp.Backends)),
	}
	var cum float64
	for i, b := range cp.Backends {
		cum += b.Weight
		cr.cum[i] = cum
		cr.versions[i] = b.Version
	}
	return cr, nil
}

// snapshot is one immutable generation of the routing table.
type snapshot struct {
	routes  map[string]*compiledRoute
	version uint64
}

// Table is a concurrency-safe routing table. Reads (Resolve, Route,
// Services, Version, String) are lock-free against an atomically
// swapped immutable snapshot; mutations serialize on a writer mutex and
// publish a new snapshot. The zero value is not usable; construct with
// NewTable.
type Table struct {
	// writeMu serializes snapshot construction; readers never take it.
	writeMu sync.Mutex
	snap    atomic.Pointer[snapshot]
	// anonSeq spreads anonymous (userless) requests over the split
	// without a lock.
	anonSeq atomic.Uint64

	// subMu guards the change-notification registry (see Subscribe);
	// notification is a coalescing non-blocking send, so holding it on
	// the mutation path never blocks on a consumer.
	subMu  sync.Mutex
	subs   map[uint64]chan struct{}
	subSeq uint64
}

// NewTable creates an empty routing table.
func NewTable() *Table {
	t := &Table{}
	t.snap.Store(&snapshot{routes: make(map[string]*compiledRoute)})
	return t
}

// ErrNoRoute is returned when no route exists for the requested service.
var ErrNoRoute = errors.New("router: no route for service")

// mutate builds the next snapshot under the writer mutex: it copies the
// current route map, lets fn edit the copy, and publishes it with a
// bumped version. fn returning an error leaves the table untouched.
func (t *Table) mutate(fn func(routes map[string]*compiledRoute) error) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	cur := t.snap.Load()
	next := make(map[string]*compiledRoute, len(cur.routes)+1)
	for k, v := range cur.routes {
		next[k] = v
	}
	if err := fn(next); err != nil {
		return err
	}
	t.snap.Store(&snapshot{routes: next, version: cur.version + 1})
	t.notify()
	return nil
}

// Set installs (or replaces) the route for route.Service. Weights are
// normalized; invalid routes are rejected without modifying the table.
func (t *Table) Set(route Route) error {
	cr, err := compileRoute(route)
	if err != nil {
		return err
	}
	return t.mutate(func(routes map[string]*compiledRoute) error {
		routes[cr.route.Service] = cr
		return nil
	})
}

// SetWeights replaces only the weighted split of an existing route,
// keeping rules and mirrors. It is the operation gradual rollouts use to
// shift traffic step by step.
func (t *Table) SetWeights(service string, backends []Backend) error {
	return t.mutate(func(routes map[string]*compiledRoute) error {
		cur, ok := routes[service]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoRoute, service)
		}
		next := cur.route
		next.Backends = backends
		cr, err := compileRoute(next)
		if err != nil {
			return err
		}
		routes[service] = cr
		return nil
	})
}

// Route returns a deep copy of the route for service: the returned
// Rules, Backends, and Mirrors slices are the caller's to modify and
// never alias the live table.
func (t *Table) Route(service string) (Route, error) {
	cr, ok := t.snap.Load().routes[service]
	if !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrNoRoute, service)
	}
	return cr.route.clone(), nil
}

// Services returns all configured service names, sorted.
func (t *Table) Services() []string {
	snap := t.snap.Load()
	out := make([]string, 0, len(snap.routes))
	for s := range snap.routes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Version returns the snapshot version: it bumps on every mutation, so
// control-plane surfaces can detect routing churn.
func (t *Table) Version() uint64 {
	return t.snap.Load().version
}

// Resolve decides which version of service handles req.
// Resolution order: first matching rule wins; otherwise the weighted
// split assigns the user stickily by hash. Anonymous requests (empty
// UserID) draw from an atomic sequence per call and are therefore not
// sticky.
//
// Resolve is the data-plane hot path: it takes no locks and performs no
// allocations — it reads one immutable snapshot for the whole decision.
func (t *Table) Resolve(service string, req *Request) (Decision, error) {
	cr := t.snap.Load().routes[service]
	if cr == nil {
		return Decision{}, fmt.Errorf("%w: %s", ErrNoRoute, service)
	}
	rules := cr.route.Rules
	for i := range rules {
		if rules[i].Match.Match(req) {
			return Decision{Version: rules[i].Version, Mirrors: cr.route.Mirrors, Rule: rules[i].Name}, nil
		}
	}
	point := t.stickyPoint(req.UserID, service, cr.route.StickySalt)
	idx := len(cr.versions) - 1
	for i, c := range cr.cum {
		if point < c {
			idx = i
			break
		}
	}
	return Decision{Version: cr.versions[idx], Mirrors: cr.route.Mirrors, Sticky: req.UserID != ""}, nil
}

// stickyPoint maps (user, service, salt) to [0,1) with allocation-free
// FNV-1a: the hot path neither allocates a hash.Hash64 nor formats
// strings. For identified users the byte stream is identical to
// hash/fnv's New64a over the same bytes, so sticky assignments are
// stable across processes and releases. Anonymous requests hash a
// per-table atomic sequence number instead of a user identity.
func (t *Table) stickyPoint(userID, service, salt string) float64 {
	h := fnvOffset64
	if userID == "" {
		n := t.anonSeq.Add(1)
		for shift := uint(0); shift < 64; shift += 8 {
			h = fnvByte(h, byte(n>>shift))
		}
	} else {
		h = fnvString(h, userID)
	}
	h = fnvByte(h, 0)
	h = fnvString(h, service)
	h = fnvByte(h, 0)
	h = fnvString(h, salt)
	return float64(h>>11) / float64(1<<53)
}

// FNV-1a 64 folded into a plain uint64. The hash is unseeded on
// purpose: the control plane and every edge agent must put the same
// user in the same bucket, which a per-process seed (hash/maphash)
// would break.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString folds s into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvByte folds one byte into h.
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// String renders the table for debugging and the expctl tool.
func (t *Table) String() string {
	snap := t.snap.Load()
	names := make([]string, 0, len(snap.routes))
	for s := range snap.routes {
		names = append(names, s)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r := &snap.routes[name].route
		fmt.Fprintf(&b, "%s:\n", name)
		for _, rule := range r.Rules {
			fmt.Fprintf(&b, "  rule %s: %s -> %s\n", rule.Name, rule.Match, rule.Version)
		}
		for _, be := range r.Backends {
			fmt.Fprintf(&b, "  %5.1f%% -> %s\n", be.Weight*100, be.Version)
		}
		for _, m := range r.Mirrors {
			fmt.Fprintf(&b, "  mirror -> %s\n", m)
		}
	}
	return b.String()
}
