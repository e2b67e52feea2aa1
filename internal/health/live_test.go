package health

import (
	"strings"
	"testing"
	"time"

	"contexp/internal/tracing"
)

// mkTrace builds a valid trace: a root span on rootSvc@rootVer calling
// each of the listed (service, version, endpoint) callees. Spans are
// stamped with the current time — the monitor discards traces that
// predate a run's registration.
func mkTrace(id uint64, rootSvc, rootVer, rootEp string, callees ...[3]string) tracing.Trace {
	start := time.Now()
	spans := []tracing.Span{{
		TraceID: tracing.TraceID(id), SpanID: 1,
		Service: rootSvc, Version: rootVer, Endpoint: rootEp,
		Start: start, Duration: 10 * time.Millisecond,
	}}
	for i, c := range callees {
		spans = append(spans, tracing.Span{
			TraceID: tracing.TraceID(id), SpanID: tracing.SpanID(i + 2), ParentID: 1,
			Service: c[0], Version: c[1], Endpoint: c[2],
			Start: start.Add(time.Duration(i+1) * time.Millisecond), Duration: 2 * time.Millisecond,
		})
	}
	return tracing.Trace{ID: tracing.TraceID(id), Spans: spans}
}

func feed(c *tracing.LiveCollector, traces ...tracing.Trace) {
	for _, tr := range traces {
		for _, s := range tr.Spans {
			c.Record(s)
		}
	}
}

func TestMonitorFoldsTracesByVariant(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1) // harvest immediately
	m.Register("run", "rec", "v1", "v2", time.Now())

	feed(c,
		// Baseline user: frontend -> rec@v1.
		mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}),
		mkTrace(2, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}),
		// Experimental user: frontend -> rec@v2 -> users (new dependency).
		mkTrace(3, "frontend", "v1", "GET /", [3]string{"rec", "v2", "GET /r"}, [3]string{"users", "v1", "GET /h"}),
		// No signal for this run: never touches rec.
		mkTrace(4, "frontend", "v1", "GET /", [3]string{"catalog", "v1", "GET /p"}),
	)

	v, err := m.Verdict("run", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.BaselineTraces != 2 || v.CandidateTraces != 1 || v.SkippedTraces != 1 {
		t.Fatalf("trace counts = %d/%d/%d, want 2/1/1",
			v.BaselineTraces, v.CandidateTraces, v.SkippedTraces)
	}
	// The candidate introduces a call to an endpoint the baseline
	// topology never exercised.
	found := false
	for _, ch := range v.Changes {
		if ch.Class == "call-new-endpoint" && strings.Contains(ch.Edge, "users@v1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a call-new-endpoint change toward users, got %+v", v.Changes)
	}
}

func TestMonitorVerdictErrors(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	if _, err := m.Verdict("missing", ""); err == nil {
		t.Error("expected error for unregistered run")
	}
	m.Register("run", "svc", "v1", "v2", time.Now())
	if _, err := m.Verdict("run", "no-such-heuristic"); err == nil {
		t.Error("expected error for unknown heuristic")
	}
	for _, name := range HeuristicNames() {
		if _, err := m.Verdict("run", name); err != nil {
			t.Errorf("heuristic %q: %v", name, err)
		}
	}
}

func TestMonitorFreezeStopsFolding(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	m.Register("run", "rec", "v1", "v2", time.Now())

	feed(c, mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}))
	if v, _ := m.Verdict("run", ""); v.BaselineTraces != 1 {
		t.Fatalf("BaselineTraces = %d, want 1", v.BaselineTraces)
	}
	m.Freeze("run")
	feed(c, mkTrace(2, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}))
	if v, _ := m.Verdict("run", ""); v.BaselineTraces != 1 {
		t.Fatalf("BaselineTraces after freeze = %d, want 1", v.BaselineTraces)
	}
}

// TestMonitorIgnoresPreRegistrationTraffic pins the isolation property:
// a new run's graphs must not be seeded by traffic that predates it —
// neither traces already settled in the collector at registration nor
// stragglers that arrive later with old timestamps.
func TestMonitorIgnoresPreRegistrationTraffic(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)

	// Settled before the run existed: drained at registration.
	feed(c, mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v2", "GET /r"}))
	m.Register("run", "rec", "v1", "v2", time.Now())
	v, err := m.Verdict("run", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.CandidateTraces != 0 || v.BaselineTraces != 0 {
		t.Fatalf("pre-registration traffic leaked into the run: %+v", v)
	}

	// Straggler with pre-registration timestamps arriving afterwards.
	old := mkTrace(2, "frontend", "v1", "GET /", [3]string{"rec", "v2", "GET /r"})
	for i := range old.Spans {
		old.Spans[i].Start = time.Now().Add(-time.Hour)
	}
	feed(c, old)
	// Fresh traffic folds normally.
	feed(c, mkTrace(3, "frontend", "v1", "GET /", [3]string{"rec", "v2", "GET /r"}))
	v, err = m.Verdict("run", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.CandidateTraces != 1 {
		t.Fatalf("CandidateTraces = %d, want 1 (only the fresh trace)", v.CandidateTraces)
	}
	if v.SkippedTraces != 1 {
		t.Fatalf("SkippedTraces = %d, want 1 (the stale straggler)", v.SkippedTraces)
	}
}

// TestMonitorFreezeFoldsSettledBacklog: traces already settled when the
// run finishes belong to its record; Freeze folds them before sealing.
func TestMonitorFreezeFoldsSettledBacklog(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	m.Register("run", "rec", "v1", "v2", time.Now())
	feed(c, mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}))
	// No Verdict/View between the trace settling and the freeze: the
	// freeze itself must harvest.
	m.Freeze("run")
	v, err := m.Verdict("run", "")
	if err != nil {
		t.Fatal(err)
	}
	if v.BaselineTraces != 1 {
		t.Fatalf("BaselineTraces = %d, want 1 (folded at freeze)", v.BaselineTraces)
	}
}

func TestMonitorBrokenTracesCounted(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	m.Register("run", "svc", "v1", "v2", time.Now())
	// Orphan span: parent never recorded.
	c.Record(tracing.Span{TraceID: 9, SpanID: 2, ParentID: 1,
		Service: "svc", Version: "v1", Endpoint: "GET /x",
		Start: time.Now(), Duration: time.Millisecond})
	if _, err := m.Verdict("run", ""); err != nil {
		t.Fatal(err)
	}
	if got := m.BrokenTraces(); got != 1 {
		t.Fatalf("BrokenTraces = %d, want 1", got)
	}
	if got := m.FoldedTraces(); got != 0 {
		t.Fatalf("FoldedTraces = %d, want 0", got)
	}
}

func TestMonitorRegisterResetsOnReuse(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	m.Register("run", "rec", "v1", "v2", time.Now())
	feed(c, mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}))
	if v, _ := m.Verdict("run", ""); v.BaselineTraces != 1 {
		t.Fatal("fold failed")
	}
	// Relaunch under the same name: the assessment starts over.
	m.Register("run", "rec", "v1", "v3", time.Now())
	if v, _ := m.Verdict("run", ""); v.BaselineTraces != 0 {
		t.Fatalf("BaselineTraces after re-register = %d, want 0", v.BaselineTraces)
	}
}

func TestMonitorView(t *testing.T) {
	c := tracing.NewLiveCollector(0)
	m := NewMonitor(c, -1)
	m.Register("run", "rec", "v1", "v2", time.Now())
	feed(c,
		mkTrace(1, "frontend", "v1", "GET /", [3]string{"rec", "v1", "GET /r"}),
		mkTrace(2, "frontend", "v1", "GET /", [3]string{"rec", "v2", "GET /r"}, [3]string{"users", "v1", "GET /h"}),
	)
	view, err := m.View("run")
	if err != nil {
		t.Fatal(err)
	}
	if view.Service != "rec" || view.Baseline != "v1" || view.Candidate != "v2" {
		t.Errorf("view identity = %+v", view)
	}
	if view.BaselineGraph.Nodes == 0 || view.CandidateGraph.Nodes == 0 {
		t.Errorf("graph summaries empty: %+v", view)
	}
	if len(view.Changes) == 0 || view.ChangesByClass["call-new-endpoint"] == 0 {
		t.Errorf("changes missing: %+v", view.Changes)
	}
	if len(view.Rankings) != len(AllHeuristics()) {
		t.Errorf("rankings cover %d heuristics, want %d", len(view.Rankings), len(AllHeuristics()))
	}
	if !strings.Contains(view.Report, "topological difference") {
		t.Errorf("report not rendered:\n%s", view.Report)
	}
}

func TestParseChangeTypeRoundTrip(t *testing.T) {
	for _, name := range ChangeClassNames() {
		ct, err := ParseChangeType(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ct.String() != name {
			t.Errorf("round trip %s -> %s", name, ct)
		}
	}
	if _, err := ParseChangeType("nonsense"); err == nil {
		t.Error("expected error for unknown class")
	}
}

func TestHeuristicByNameDefault(t *testing.T) {
	h, err := HeuristicByName("")
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "subtree-weighted" {
		t.Errorf("default heuristic = %s", h.Name())
	}
}

func TestRankScoredMatchesRank(t *testing.T) {
	base, exp, err := GenerateGraphPair(GraphGenConfig{Endpoints: 50, ChangeFraction: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(base, exp)
	for _, h := range AllHeuristics() {
		plain := Rank(h, d)
		scored := RankScored(h, d)
		if len(plain) != len(scored) {
			t.Fatalf("%s: length mismatch", h.Name())
		}
		for i := range plain {
			if plain[i].ID() != scored[i].ID() {
				t.Fatalf("%s: order diverges at %d", h.Name(), i)
			}
			if i > 0 && scored[i].Score > scored[i-1].Score {
				t.Fatalf("%s: scores not descending at %d", h.Name(), i)
			}
		}
	}
}
