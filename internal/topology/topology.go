// Package topology builds service interaction graphs from distributed
// traces, the analysis model of Chapter 5. Nodes denote endpoints of
// services in specific versions; edges denote calls between them
// ("which services call which concrete other service endpoints",
// Section 5.4.2). The graphs of a baseline and an experimental variant
// are later diffed by the health package to surface topological changes.
package topology

import (
	"fmt"
	"sort"
	"time"

	"contexp/internal/tracing"
)

// Node is an endpoint of a service in a specific version, annotated with
// the call statistics observed in the trace set.
type Node struct {
	Key tracing.NodeKey
	// Calls is how many spans hit this endpoint.
	Calls int
	// Errors is how many of those spans failed.
	Errors int
	// TotalDuration accumulates span durations; mean = Total/Calls.
	// A node keeps no per-span state, so folding traces into a graph
	// costs memory only for novel nodes and edges.
	TotalDuration time.Duration
}

// MeanDuration returns the average observed duration of the endpoint.
func (n *Node) MeanDuration() time.Duration {
	if n.Calls == 0 {
		return 0
	}
	return n.TotalDuration / time.Duration(n.Calls)
}

// EdgeKey identifies a caller→callee interaction.
type EdgeKey struct {
	From tracing.NodeKey
	To   tracing.NodeKey
}

// String renders "from -> to".
func (k EdgeKey) String() string {
	return k.From.String() + " -> " + k.To.String()
}

// Edge is an observed caller→callee interaction with its statistics.
type Edge struct {
	Key   EdgeKey
	Calls int
}

// Graph is a service interaction graph extracted from a set of traces.
type Graph struct {
	Variant tracing.Variant
	Nodes   map[tracing.NodeKey]*Node
	Edges   map[EdgeKey]*Edge
	// Roots are entry-point nodes (reached by root spans).
	Roots map[tracing.NodeKey]bool
	// out adjacency, deterministic ordering computed lazily and
	// maintained incrementally as AddTrace folds new edges in.
	out map[tracing.NodeKey][]tracing.NodeKey
	// dirty, when attached via Track, accumulates the keys of nodes and
	// edges AddTrace creates — the change-notification feed incremental
	// consumers (health.IncrementalDiff) drain instead of re-walking the
	// graph.
	dirty *Dirty
}

// Dirty accumulates the node and edge keys a graph gained since the
// last Drain: the change-notification feed of the incremental analysis
// plane. Only structural novelty is reported — a key appears exactly
// once, when AddTrace first creates its node or edge. Statistics
// updates to existing keys (calls, errors, durations) are not reported,
// since the topological diff depends only on which keys exist.
type Dirty struct {
	Nodes []tracing.NodeKey
	Edges []EdgeKey
}

// Drain returns the accumulated keys and resets the sets. The returned
// slices are owned by the caller; the tracker starts fresh.
func (d *Dirty) Drain() (nodes []tracing.NodeKey, edges []EdgeKey) {
	nodes, edges = d.Nodes, d.Edges
	d.Nodes, d.Edges = nil, nil
	return nodes, edges
}

// Empty reports whether nothing changed since the last Drain.
func (d *Dirty) Empty() bool { return len(d.Nodes) == 0 && len(d.Edges) == 0 }

// Track attaches (and returns) the graph's change tracker. All
// mutations MUST flow through AddTrace from this point on — direct map
// manipulation bypasses the feed. A graph has at most one tracker;
// repeated calls return the same one.
func (g *Graph) Track() *Dirty {
	if g.dirty == nil {
		g.dirty = &Dirty{}
	}
	return g.dirty
}

// NewGraph returns an empty graph for the given variant.
func NewGraph(variant tracing.Variant) *Graph {
	return &Graph{
		Variant: variant,
		Nodes:   make(map[tracing.NodeKey]*Node),
		Edges:   make(map[EdgeKey]*Edge),
		Roots:   make(map[tracing.NodeKey]bool),
	}
}

// Build constructs the interaction graph of all traces. Broken traces
// (failing Validate) are skipped rather than poisoning the graph, since
// real tracing backends routinely deliver incomplete traces.
func Build(variant tracing.Variant, traces []tracing.Trace) *Graph {
	g := NewGraph(variant)
	for i := range traces {
		_ = g.AddTrace(&traces[i])
	}
	return g
}

// AddTrace folds one trace into the graph incrementally — the unit of
// work of the live analysis plane, which grows baseline and candidate
// graphs trace by trace as the data plane hands settled traces over.
// Broken traces are rejected with the validation error and leave the
// graph untouched.
func (g *Graph) AddTrace(tr *tracing.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	g.addTrace(tr)
	return nil
}

func (g *Graph) addTrace(tr *tracing.Trace) {
	byID := make(map[tracing.SpanID]tracing.Span, len(tr.Spans))
	for _, s := range tr.Spans {
		byID[s.SpanID] = s
	}
	for _, s := range tr.Spans {
		key := s.Node()
		n := g.Nodes[key]
		if n == nil {
			n = &Node{Key: key}
			g.Nodes[key] = n
			if g.dirty != nil {
				g.dirty.Nodes = append(g.dirty.Nodes, key)
			}
		}
		n.Calls++
		if s.Err {
			n.Errors++
		}
		n.TotalDuration += s.Duration

		if s.ParentID == 0 {
			g.Roots[key] = true
			continue
		}
		parent, ok := byID[s.ParentID]
		if !ok {
			continue
		}
		ek := EdgeKey{From: parent.Node(), To: key}
		e := g.Edges[ek]
		if e == nil {
			e = &Edge{Key: ek}
			g.Edges[ek] = e
			if g.dirty != nil {
				g.dirty.Edges = append(g.dirty.Edges, ek)
			}
			// Keep the adjacency cache coherent instead of discarding it:
			// a new edge inserts its callee in sorted position, so the
			// live pipeline's per-trace fold stays O(degree) rather than
			// forcing an O(edges log edges) rebuild on the next Callees.
			if g.out != nil {
				g.insertCallee(ek)
			}
		}
		e.Calls++
	}
}

// insertCallee inserts ek.To into the sorted adjacency list of ek.From.
func (g *Graph) insertCallee(ek EdgeKey) {
	tos := g.out[ek.From]
	i := sort.Search(len(tos), func(i int) bool { return !nodeKeyLess(tos[i], ek.To) })
	tos = append(tos, tracing.NodeKey{})
	copy(tos[i+1:], tos[i:])
	tos[i] = ek.To
	g.out[ek.From] = tos
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Callees returns the deterministic (sorted) list of nodes called by `from`.
func (g *Graph) Callees(from tracing.NodeKey) []tracing.NodeKey {
	if g.out == nil {
		g.out = make(map[tracing.NodeKey][]tracing.NodeKey, len(g.Nodes))
		for ek := range g.Edges {
			g.out[ek.From] = append(g.out[ek.From], ek.To)
		}
		for _, tos := range g.out {
			sort.Slice(tos, func(i, j int) bool {
				return nodeKeyLess(tos[i], tos[j])
			})
		}
	}
	return g.out[from]
}

// SortedNodes returns all node keys in deterministic order.
func (g *Graph) SortedNodes() []tracing.NodeKey {
	keys := make([]tracing.NodeKey, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return nodeKeyLess(keys[i], keys[j]) })
	return keys
}

// SortedEdges returns all edge keys in deterministic order.
func (g *Graph) SortedEdges() []EdgeKey {
	keys := make([]EdgeKey, 0, len(g.Edges))
	for k := range g.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return nodeKeyLess(keys[i].From, keys[j].From)
		}
		return nodeKeyLess(keys[i].To, keys[j].To)
	})
	return keys
}

// Subtree returns the set of nodes reachable from root (including root)
// following call edges. Cycles are handled.
func (g *Graph) Subtree(root tracing.NodeKey) map[tracing.NodeKey]bool {
	seen := make(map[tracing.NodeKey]bool)
	var walk func(k tracing.NodeKey)
	walk = func(k tracing.NodeKey) {
		if seen[k] {
			return
		}
		seen[k] = true
		for _, to := range g.Callees(k) {
			walk(to)
		}
	}
	walk(root)
	return seen
}

// Depth returns the height of the call subtree under root: 1 for a leaf.
// Cycles contribute no additional depth.
func (g *Graph) Depth(root tracing.NodeKey) int {
	seen := make(map[tracing.NodeKey]bool)
	var walk func(k tracing.NodeKey) int
	walk = func(k tracing.NodeKey) int {
		if seen[k] {
			return 0
		}
		seen[k] = true
		defer delete(seen, k)
		best := 0
		for _, to := range g.Callees(k) {
			if d := walk(to); d > best {
				best = d
			}
		}
		return best + 1
	}
	return walk(root)
}

// ServiceVersions returns the set of versions observed per service.
func (g *Graph) ServiceVersions() map[string][]string {
	set := make(map[string]map[string]bool)
	for k := range g.Nodes {
		if set[k.Service] == nil {
			set[k.Service] = make(map[string]bool)
		}
		set[k.Service][k.Version] = true
	}
	out := make(map[string][]string, len(set))
	for svc, versions := range set {
		vs := make([]string, 0, len(versions))
		for v := range versions {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		out[svc] = vs
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(%s: %d nodes, %d edges, %d roots)",
		g.Variant, len(g.Nodes), len(g.Edges), len(g.Roots))
}

func nodeKeyLess(a, b tracing.NodeKey) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	if a.Version != b.Version {
		return a.Version < b.Version
	}
	return a.Endpoint < b.Endpoint
}
