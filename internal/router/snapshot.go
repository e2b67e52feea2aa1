package router

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
)

// This file is the router's distribution surface: the pieces that turn
// one in-process Table into a control plane feeding a fleet of edge
// agents. The copy-on-write snapshot the Table already swaps on every
// mutation is the natural unit to ship — Export captures it as a value,
// DiffSnapshots derives the version-keyed delta between two captures,
// and ApplySnapshot/ApplyDelta install either on a receiving table
// while adopting the *control plane's* version numbering, so an agent's
// applied version is directly comparable to the brain's published one.

// TableSnapshot is a deep-copied capture of the whole routing table at
// one version. Routes are sorted by Service, so two snapshots of equal
// content are structurally identical — the property the wire codec's
// byte-identity tests lean on.
type TableSnapshot struct {
	Version uint64
	Routes  []Route
}

// TableDelta is the difference between two snapshots of the same table:
// apply it to a table sitting exactly at FromVersion and the table
// becomes byte-identical to one that exported ToVersion. Upserts carry
// whole routes (not field patches), sorted by Service; Removes is
// sorted. A delta may span several version bumps when the producer
// coalesced swaps; an empty Upserts+Removes still advances the version
// (e.g. a Remove of an absent service bumps the source table).
type TableDelta struct {
	FromVersion uint64
	ToVersion   uint64
	Upserts     []Route
	Removes     []string
}

// Export captures the current snapshot as a deep copy: the returned
// routes never alias the live table.
func (t *Table) Export() TableSnapshot {
	snap := t.snap.Load()
	names := make([]string, 0, len(snap.routes))
	for name := range snap.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := TableSnapshot{Version: snap.version, Routes: make([]Route, 0, len(names))}
	for _, name := range names {
		out.Routes = append(out.Routes, snap.routes[name].route.clone())
	}
	return out
}

// Subscribe registers for change notification: the returned channel
// receives after every snapshot swap. Notifications coalesce (buffer of
// one) — a slow consumer wakes once and reads the table's latest state,
// it never queues a backlog. The cancel function unregisters; after it
// returns the channel receives nothing further.
func (t *Table) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	t.subMu.Lock()
	if t.subs == nil {
		t.subs = make(map[uint64]chan struct{})
	}
	id := t.subSeq
	t.subSeq++
	t.subs[id] = ch
	t.subMu.Unlock()
	return ch, func() {
		t.subMu.Lock()
		delete(t.subs, id)
		t.subMu.Unlock()
	}
}

// notify wakes every subscriber without blocking: each channel holds at
// most one pending notification.
func (t *Table) notify() {
	t.subMu.Lock()
	for _, ch := range t.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	t.subMu.Unlock()
}

// ErrVersionSkew reports a delta that does not chain onto the table's
// current version, or one whose ToVersion does not lie past its
// FromVersion; the receiver must resynchronize from a full snapshot.
var ErrVersionSkew = errors.New("router: delta does not chain onto current snapshot version")

// ApplySnapshot replaces the table's entire contents with snap,
// adopting snap.Version verbatim. Every route is validated and compiled
// before the swap: an invalid route rejects the whole snapshot and
// leaves the table untouched.
func (t *Table) ApplySnapshot(snap TableSnapshot) error {
	next := make(map[string]*compiledRoute, len(snap.Routes))
	for _, r := range snap.Routes {
		cr, err := compileRoute(r)
		if err != nil {
			return err
		}
		next[cr.route.Service] = cr
	}
	t.writeMu.Lock()
	t.snap.Store(&snapshot{routes: next, version: snap.Version})
	t.writeMu.Unlock()
	t.notify()
	return nil
}

// ApplyDelta advances the table from d.FromVersion to d.ToVersion. The
// table must sit exactly at FromVersion, and ToVersion must lie past it
// (ErrVersionSkew otherwise: a version only moves forward), and every
// upsert compiles before anything is installed — a bad delta leaves the
// table untouched at its current version.
func (t *Table) ApplyDelta(d TableDelta) error {
	if d.ToVersion <= d.FromVersion {
		return fmt.Errorf("%w: delta from %d to %d does not move forward", ErrVersionSkew, d.FromVersion, d.ToVersion)
	}
	compiled := make([]*compiledRoute, 0, len(d.Upserts))
	for _, r := range d.Upserts {
		cr, err := compileRoute(r)
		if err != nil {
			return err
		}
		compiled = append(compiled, cr)
	}
	t.writeMu.Lock()
	cur := t.snap.Load()
	if cur.version != d.FromVersion {
		t.writeMu.Unlock()
		return fmt.Errorf("%w: table at %d, delta from %d", ErrVersionSkew, cur.version, d.FromVersion)
	}
	next := make(map[string]*compiledRoute, len(cur.routes)+len(compiled))
	for k, v := range cur.routes {
		next[k] = v
	}
	for _, cr := range compiled {
		next[cr.route.Service] = cr
	}
	for _, svc := range d.Removes {
		delete(next, svc)
	}
	t.snap.Store(&snapshot{routes: next, version: d.ToVersion})
	t.writeMu.Unlock()
	t.notify()
	return nil
}

// DiffSnapshots derives the delta turning old into cur: routes new or
// changed in cur become Upserts, routes present only in old become
// Removes. Both input snapshots must come from Export (routes sorted by
// Service).
func DiffSnapshots(old, cur TableSnapshot) TableDelta {
	d := TableDelta{FromVersion: old.Version, ToVersion: cur.Version}
	prev := make(map[string]*Route, len(old.Routes))
	for i := range old.Routes {
		prev[old.Routes[i].Service] = &old.Routes[i]
	}
	for i := range cur.Routes {
		r := &cur.Routes[i]
		if o, ok := prev[r.Service]; !ok || !routeEqual(o, r) {
			d.Upserts = append(d.Upserts, r.clone())
		}
	}
	seen := make(map[string]bool, len(cur.Routes))
	for i := range cur.Routes {
		seen[cur.Routes[i].Service] = true
	}
	for i := range old.Routes {
		if !seen[old.Routes[i].Service] {
			d.Removes = append(d.Removes, old.Routes[i].Service)
		}
	}
	sort.Strings(d.Removes)
	return d
}

// routeEqual compares two routes structurally. Matchers compare with
// reflect.DeepEqual so custom non-comparable Matcher implementations
// never panic a ==.
func routeEqual(a, b *Route) bool {
	if a.Service != b.Service || a.StickySalt != b.StickySalt ||
		len(a.Rules) != len(b.Rules) || len(a.Backends) != len(b.Backends) ||
		len(a.Mirrors) != len(b.Mirrors) {
		return false
	}
	for i := range a.Rules {
		ra, rb := &a.Rules[i], &b.Rules[i]
		if ra.Name != rb.Name || ra.Version != rb.Version || !reflect.DeepEqual(ra.Match, rb.Match) {
			return false
		}
	}
	for i := range a.Backends {
		if a.Backends[i] != b.Backends[i] {
			return false
		}
	}
	for i := range a.Mirrors {
		if a.Mirrors[i] != b.Mirrors[i] {
			return false
		}
	}
	return true
}
