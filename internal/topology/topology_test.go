package topology

import (
	"runtime"
	"testing"
	"time"

	"contexp/internal/tracing"
)

var tBase = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

// buildTrace constructs a trace frontend -> catalog -> db with optional
// error on the catalog span.
func buildTrace(id tracing.TraceID, variant tracing.Variant, catalogErr bool) tracing.Trace {
	spans := []tracing.Span{
		{TraceID: id, SpanID: 1, Service: "frontend", Version: "v1", Endpoint: "GET /",
			Start: tBase, Duration: 100 * time.Millisecond, Variant: variant},
		{TraceID: id, SpanID: 2, ParentID: 1, Service: "catalog", Version: "v1", Endpoint: "GET /products",
			Start: tBase.Add(5 * time.Millisecond), Duration: 50 * time.Millisecond, Err: catalogErr, Variant: variant},
		{TraceID: id, SpanID: 3, ParentID: 2, Service: "db", Version: "v1", Endpoint: "QUERY products",
			Start: tBase.Add(10 * time.Millisecond), Duration: 20 * time.Millisecond, Variant: variant},
	}
	return tracing.Trace{ID: id, Variant: variant, Spans: spans}
}

func nk(svc, ver, ep string) tracing.NodeKey {
	return tracing.NodeKey{Service: svc, Version: ver, Endpoint: ep}
}

func TestBuildGraph(t *testing.T) {
	traces := []tracing.Trace{
		buildTrace(1, tracing.VariantBaseline, false),
		buildTrace(2, tracing.VariantBaseline, true),
	}
	g := Build(tracing.VariantBaseline, traces)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.Roots[nk("frontend", "v1", "GET /")] {
		t.Error("frontend root not detected")
	}
	cat := g.Nodes[nk("catalog", "v1", "GET /products")]
	if cat == nil || cat.Calls != 2 || cat.Errors != 1 {
		t.Fatalf("catalog node = %+v", cat)
	}
	if cat.MeanDuration() != 50*time.Millisecond {
		t.Errorf("MeanDuration = %v", cat.MeanDuration())
	}
	edge := g.Edges[EdgeKey{From: nk("frontend", "v1", "GET /"), To: nk("catalog", "v1", "GET /products")}]
	if edge == nil || edge.Calls != 2 {
		t.Fatalf("frontend->catalog edge = %+v", edge)
	}
}

func TestBuildSkipsBrokenTraces(t *testing.T) {
	broken := tracing.Trace{ID: 9, Spans: []tracing.Span{
		{TraceID: 9, SpanID: 1, ParentID: 42, Service: "x", Version: "v1", Endpoint: "e"},
	}}
	g := Build("", []tracing.Trace{broken, buildTrace(1, "", false)})
	if g.NumNodes() != 3 {
		t.Errorf("broken trace contaminated graph: %d nodes", g.NumNodes())
	}
}

func TestCalleesDeterministic(t *testing.T) {
	g := Build("", []tracing.Trace{buildTrace(1, "", false)})
	callees := g.Callees(nk("frontend", "v1", "GET /"))
	if len(callees) != 1 || callees[0].Service != "catalog" {
		t.Fatalf("Callees = %v", callees)
	}
	if got := g.Callees(nk("db", "v1", "QUERY products")); len(got) != 0 {
		t.Errorf("leaf should have no callees, got %v", got)
	}
}

func TestSubtreeAndDepth(t *testing.T) {
	g := Build("", []tracing.Trace{buildTrace(1, "", false)})
	sub := g.Subtree(nk("frontend", "v1", "GET /"))
	if len(sub) != 3 {
		t.Errorf("Subtree size = %d, want 3", len(sub))
	}
	if d := g.Depth(nk("frontend", "v1", "GET /")); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	if d := g.Depth(nk("db", "v1", "QUERY products")); d != 1 {
		t.Errorf("leaf Depth = %d, want 1", d)
	}
}

func TestDepthWithCycle(t *testing.T) {
	// a -> b -> a cycle, plus b -> c.
	spans := []tracing.Span{
		{TraceID: 1, SpanID: 1, Service: "a", Version: "v1", Endpoint: "e", Start: tBase},
		{TraceID: 1, SpanID: 2, ParentID: 1, Service: "b", Version: "v1", Endpoint: "e", Start: tBase.Add(time.Millisecond)},
		{TraceID: 1, SpanID: 3, ParentID: 2, Service: "a", Version: "v1", Endpoint: "e", Start: tBase.Add(2 * time.Millisecond)},
		{TraceID: 1, SpanID: 4, ParentID: 2, Service: "c", Version: "v1", Endpoint: "e", Start: tBase.Add(3 * time.Millisecond)},
	}
	g := Build("", []tracing.Trace{{ID: 1, Spans: spans}})
	// Depth must terminate and count a -> b -> c.
	if d := g.Depth(nk("a", "v1", "e")); d != 3 {
		t.Errorf("cyclic Depth = %d, want 3", d)
	}
	sub := g.Subtree(nk("a", "v1", "e"))
	if len(sub) != 3 {
		t.Errorf("cyclic Subtree size = %d, want 3", len(sub))
	}
}

func TestServiceVersions(t *testing.T) {
	traces := []tracing.Trace{buildTrace(1, "", false)}
	// Add a trace with catalog v2.
	spans := []tracing.Span{
		{TraceID: 2, SpanID: 10, Service: "frontend", Version: "v1", Endpoint: "GET /", Start: tBase},
		{TraceID: 2, SpanID: 11, ParentID: 10, Service: "catalog", Version: "v2", Endpoint: "GET /products", Start: tBase},
	}
	traces = append(traces, tracing.Trace{ID: 2, Spans: spans})
	g := Build("", traces)
	sv := g.ServiceVersions()
	if got := sv["catalog"]; len(got) != 2 || got[0] != "v1" || got[1] != "v2" {
		t.Errorf("catalog versions = %v", got)
	}
}

func TestSortedNodesAndEdgesStable(t *testing.T) {
	g := Build("", []tracing.Trace{buildTrace(1, "", false)})
	n1 := g.SortedNodes()
	n2 := g.SortedNodes()
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("SortedNodes not deterministic")
		}
	}
	e1 := g.SortedEdges()
	if len(e1) != 2 {
		t.Fatalf("SortedEdges len = %d", len(e1))
	}
	if e1[0].From.Service > e1[1].From.Service {
		t.Error("edges not sorted")
	}
}

func TestGraphString(t *testing.T) {
	g := Build(tracing.VariantBaseline, []tracing.Trace{buildTrace(1, tracing.VariantBaseline, false)})
	s := g.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestTrackReportsOnlyNovelty(t *testing.T) {
	g := NewGraph(tracing.VariantBaseline)
	d := g.Track()
	if !d.Empty() {
		t.Fatal("fresh tracker should be empty")
	}
	if g.Track() != d {
		t.Fatal("Track must return the same tracker on repeated calls")
	}

	tr := buildTrace(1, tracing.VariantBaseline, false)
	if err := g.AddTrace(&tr); err != nil {
		t.Fatal(err)
	}
	nodes, edges := d.Drain()
	if len(nodes) != 3 || len(edges) != 2 {
		t.Fatalf("first fold: %d nodes, %d edges dirty, want 3/2", len(nodes), len(edges))
	}
	if !d.Empty() {
		t.Fatal("tracker should be empty after Drain")
	}

	// Folding the identical topology again creates no new keys: the
	// feed reports structural novelty, not statistics updates.
	tr2 := buildTrace(2, tracing.VariantBaseline, true)
	if err := g.AddTrace(&tr2); err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		nodes, edges := d.Drain()
		t.Fatalf("repeat fold dirtied %d nodes, %d edges, want none", len(nodes), len(edges))
	}

	// A new child endpoint dirties exactly the new node and edge.
	tr3 := buildTrace(3, tracing.VariantBaseline, false)
	tr3.Spans = append(tr3.Spans, tracing.Span{
		TraceID: 3, SpanID: 4, ParentID: 1,
		Service: "search", Version: "v1", Endpoint: "GET /q",
		Start: tBase, Duration: time.Millisecond,
	})
	if err := g.AddTrace(&tr3); err != nil {
		t.Fatal(err)
	}
	nodes, edges = d.Drain()
	if len(nodes) != 1 || nodes[0] != nk("search", "v1", "GET /q") {
		t.Fatalf("dirty nodes = %v", nodes)
	}
	if len(edges) != 1 || edges[0].To != nk("search", "v1", "GET /q") {
		t.Fatalf("dirty edges = %v", edges)
	}
}

func TestAddTraceMaintainsAdjacencyCache(t *testing.T) {
	g := NewGraph(tracing.VariantBaseline)
	tr := buildTrace(1, tracing.VariantBaseline, false)
	if err := g.AddTrace(&tr); err != nil {
		t.Fatal(err)
	}
	front := nk("frontend", "v1", "GET /")
	if got := g.Callees(front); len(got) != 1 {
		t.Fatalf("Callees = %v", got)
	}
	// Fold edges after the cache materialized: insertion must keep the
	// per-caller lists sorted without a rebuild.
	for _, ep := range []string{"GET /z", "GET /a", "GET /m"} {
		tr := buildTrace(2, tracing.VariantBaseline, false)
		tr.Spans = append(tr.Spans, tracing.Span{
			TraceID: 2, SpanID: 4, ParentID: 1,
			Service: "aux", Version: "v1", Endpoint: ep,
			Start: tBase, Duration: time.Millisecond,
		})
		if err := g.AddTrace(&tr); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Callees(front)
	want := []tracing.NodeKey{
		nk("aux", "v1", "GET /a"), nk("aux", "v1", "GET /m"), nk("aux", "v1", "GET /z"),
		nk("catalog", "v1", "GET /products"),
	}
	if len(got) != len(want) {
		t.Fatalf("Callees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Callees[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAddTraceRetainsNoPerSpanState: once a trace's nodes and edges
// exist, folding it again only bumps counters. A live run folds every
// settled trace for its whole life, so anything kept per span would
// grow without bound.
func TestAddTraceRetainsNoPerSpanState(t *testing.T) {
	tr := synthTraces(1, 6, 6)[0] // 7 spans
	g := NewGraph(tracing.VariantBaseline)
	if err := g.AddTrace(&tr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		if err := g.AddTrace(&tr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := g.Nodes[tr.Spans[0].Node()].Calls; n != 100_001 {
		t.Fatalf("root calls = %d, want 100001", n)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("100k folds of a known trace retained %d bytes of heap, want < 64 KiB", grew)
	}
}
