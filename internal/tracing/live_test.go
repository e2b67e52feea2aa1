package tracing

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func liveSpan(trace, span, parent uint64) Span {
	return Span{
		TraceID:  TraceID(trace),
		SpanID:   SpanID(span),
		ParentID: SpanID(parent),
		Service:  "svc",
		Version:  "v1",
		Endpoint: "GET /x",
		Start:    time.Unix(int64(span), 0),
		Duration: time.Millisecond,
	}
}

func TestLiveCollectorHarvestRemovesTraces(t *testing.T) {
	c := NewLiveCollector(0)
	c.Record(liveSpan(1, 1, 0))
	c.Record(liveSpan(1, 2, 1))
	c.Record(liveSpan(2, 3, 0))
	if got := c.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	if got := c.PendingTraces(); got != 2 {
		t.Fatalf("PendingTraces = %d, want 2", got)
	}

	traces := c.Harvest(0)
	if len(traces) != 2 {
		t.Fatalf("harvested %d traces, want 2", len(traces))
	}
	byID := make(map[TraceID]Trace, len(traces))
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	if len(byID[1].Spans) != 2 || len(byID[2].Spans) != 1 {
		t.Errorf("trace span counts = %d/%d, want 2/1", len(byID[1].Spans), len(byID[2].Spans))
	}

	// Harvest hands each trace over exactly once.
	if again := c.Harvest(0); len(again) != 0 {
		t.Errorf("second harvest returned %d traces, want 0", len(again))
	}
	if got := c.SpanCount(); got != 0 {
		t.Errorf("SpanCount after harvest = %d, want 0", got)
	}
	if got := c.HarvestedTraces(); got != 2 {
		t.Errorf("HarvestedTraces = %d, want 2", got)
	}
}

func TestLiveCollectorSettleWindow(t *testing.T) {
	c := NewLiveCollector(0)
	c.Record(liveSpan(1, 1, 0))
	// A long settle keeps the fresh trace buffered.
	if got := c.Harvest(time.Hour); len(got) != 0 {
		t.Fatalf("harvested %d traces within the settle window, want 0", len(got))
	}
	if got := c.Harvest(0); len(got) != 1 {
		t.Fatalf("harvested %d traces with settle 0, want 1", len(got))
	}
}

func TestLiveCollectorCapDrops(t *testing.T) {
	c := NewLiveCollector(2)
	if !c.Record(liveSpan(1, 1, 0)) || !c.Record(liveSpan(2, 2, 0)) {
		t.Fatal("spans under the cap must be accepted")
	}
	if c.Record(liveSpan(3, 3, 0)) {
		t.Fatal("span beyond the cap must be dropped")
	}
	if got := c.Drops(); got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
	// Harvesting frees capacity.
	if got := c.Harvest(0); len(got) != 2 {
		t.Fatalf("harvested %d, want 2", len(got))
	}
	if !c.Record(liveSpan(4, 4, 0)) {
		t.Fatal("span after harvest must be accepted again")
	}
}

func TestLiveCollectorRejectsZeroTraceID(t *testing.T) {
	c := NewLiveCollector(0)
	if c.Record(liveSpan(0, 1, 0)) {
		t.Fatal("span without trace ID must be dropped")
	}
	if got := c.Drops(); got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
}

func TestLiveCollectorRecordBatch(t *testing.T) {
	c := NewLiveCollector(3)
	batch := []Span{liveSpan(1, 1, 0), liveSpan(1, 2, 1), liveSpan(1, 3, 1), liveSpan(1, 4, 1)}
	if got := c.RecordBatch(batch); got != 3 {
		t.Fatalf("RecordBatch accepted %d, want 3", got)
	}
	if got := c.Drops(); got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
}

func TestLiveCollectorConcurrentRecordHarvest(t *testing.T) {
	c := NewLiveCollector(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint64(g*1000 + i + 1)
				c.Record(liveSpan(id, id, 0))
			}
		}(g)
	}
	done := make(chan struct{})
	var harvested int
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			harvested += len(c.Harvest(0))
		}
	}()
	wg.Wait()
	<-done
	harvested += len(c.Harvest(0))
	if harvested != 8*200 {
		t.Fatalf("harvested %d traces total, want %d", harvested, 8*200)
	}
}

func TestCollectorCapDrops(t *testing.T) {
	c := NewLiveCollector(2)
	c.Record(liveSpan(1, 1, 0))
	c.Record(liveSpan(1, 2, 1))
	c.Record(liveSpan(1, 3, 1)) // beyond cap
	if got := c.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}
	if got := c.Drops(); got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
	// Harvesting frees capacity but keeps the drop counter.
	c.Harvest(0)
	c.Record(liveSpan(2, 4, 0))
	if got, drops := c.SpanCount(), c.Drops(); got != 1 || drops != 1 {
		t.Fatalf("after harvest: SpanCount = %d, Drops = %d, want 1, 1", got, drops)
	}
}

func TestLiveCollectorIDAllocation(t *testing.T) {
	c := NewLiveCollector(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		id := uint64(c.NextTraceID())
		if seen[id] {
			t.Fatalf("duplicate trace id %d", id)
		}
		seen[id] = true
		sid := uint64(c.NextSpanID())
		if seen[sid] {
			t.Fatalf("span id %d collides", sid)
		}
		seen[sid] = true
	}
}

func BenchmarkLiveCollectorRecord(b *testing.B) {
	c := NewLiveCollector(0)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			c.Record(liveSpan(i%4096+1, i, 0))
		}
	})
	_ = fmt.Sprint(c.SpanCount())
}

// BenchmarkLiveCollectorHarvest measures the harvest sweep alone: spans
// are recorded with the timer stopped, so allocs/op counts only what
// Harvest itself does. The reused scratch slice keeps the steady-state
// poll loop allocation-free, and the bench gate holds it there.
func BenchmarkLiveCollectorHarvest(b *testing.B) {
	c := NewLiveCollector(0)
	fill := func() {
		for t := uint64(1); t <= 64; t++ {
			for s := uint64(0); s < 4; s++ {
				c.Record(liveSpan(t, t*100+s+1, 0))
			}
		}
	}
	fill()
	c.Harvest(0) // size the scratch slice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if got := len(c.Harvest(0)); got != 64 {
			b.Fatalf("harvested %d traces, want 64", got)
		}
	}
}
