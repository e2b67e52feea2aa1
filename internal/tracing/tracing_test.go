package tracing

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var tBase = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

func sampleTrace(c *LiveCollector, variant Variant) TraceID {
	tid := c.NextTraceID()
	root := Span{
		TraceID: tid, SpanID: c.NextSpanID(),
		Service: "frontend", Version: "v1", Endpoint: "GET /",
		Start: tBase, Duration: 100 * time.Millisecond, Variant: variant,
	}
	child := Span{
		TraceID: tid, SpanID: c.NextSpanID(), ParentID: root.SpanID,
		Service: "catalog", Version: "v2", Endpoint: "GET /products",
		Start: tBase.Add(10 * time.Millisecond), Duration: 40 * time.Millisecond, Variant: variant,
	}
	// Record out of order on purpose.
	c.Record(child)
	c.Record(root)
	return tid
}

func TestCollectorAssemblesTraces(t *testing.T) {
	c := NewLiveCollector(0)
	tid := sampleTrace(c, VariantBaseline)
	traces := c.Harvest(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != tid || tr.Variant != VariantBaseline || len(tr.Spans) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	// Spans keep their arrival order; the root is found by parent, not
	// by position.
	if root, ok := tr.Root(); !ok || root.Service != "frontend" {
		t.Errorf("Root = %+v, %v", root, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTraceRootAndDuration(t *testing.T) {
	c := NewLiveCollector(0)
	sampleTrace(c, VariantExperiment)
	tr := c.Harvest(0)[0]
	root, ok := tr.Root()
	if !ok || root.Service != "frontend" {
		t.Fatalf("Root = %+v, %v", root, ok)
	}
	if tr.Duration() != 100*time.Millisecond {
		t.Errorf("Duration = %v", tr.Duration())
	}
	empty := Trace{}
	if _, ok := empty.Root(); ok {
		t.Error("empty trace should have no root")
	}
	if empty.Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

// A harvested trace carries its spans' variant, so a reader can split
// baseline from experimental users without looking inside.
func TestVariantFiltering(t *testing.T) {
	c := NewLiveCollector(0)
	sampleTrace(c, VariantBaseline)
	sampleTrace(c, VariantBaseline)
	sampleTrace(c, VariantExperiment)
	count := map[Variant]int{}
	for _, tr := range c.Harvest(0) {
		count[tr.Variant]++
	}
	if count[VariantBaseline] != 2 || count[VariantExperiment] != 1 {
		t.Errorf("traces per variant = %v, want 2 baseline, 1 experiment", count)
	}
}

func TestNodeKey(t *testing.T) {
	s := Span{Service: "cart", Version: "v3", Endpoint: "POST /add"}
	k := s.Node()
	if k.String() != "cart@v3:POST /add" {
		t.Errorf("NodeKey.String = %q", k.String())
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(spans ...Span) *Trace { return &Trace{ID: 1, Spans: spans} }
	tests := []struct {
		name    string
		tr      *Trace
		wantSub string
	}{
		{"empty", mk(), "no spans"},
		{"two roots", mk(
			Span{SpanID: 1}, Span{SpanID: 2},
		), "2 roots"},
		{"duplicate span id", mk(
			Span{SpanID: 1}, Span{SpanID: 1, ParentID: 1},
		), "duplicate"},
		{"dangling parent", mk(
			Span{SpanID: 1}, Span{SpanID: 2, ParentID: 99},
		), "unknown parent"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.tr.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("Validate = %v, want containing %q", err, tt.wantSub)
			}
		})
	}
}

func TestIDAllocationUniqueUnderConcurrency(t *testing.T) {
	c := NewLiveCollector(0)
	const n = 1000
	ids := make([]uint64, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[2*i] = uint64(c.NextTraceID())
			ids[2*i+1] = uint64(c.NextSpanID())
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestConcurrentRecord(t *testing.T) {
	c := NewLiveCollector(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sampleTrace(c, VariantBaseline)
			}
		}()
	}
	wg.Wait()
	if got := c.SpanCount(); got != 8*100*2 {
		t.Errorf("SpanCount = %d, want %d", got, 8*100*2)
	}
	traces := c.Harvest(0)
	if len(traces) != 8*100 {
		t.Errorf("harvested %d traces, want %d", len(traces), 8*100)
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid trace after concurrent recording: %v", err)
		}
	}
}
