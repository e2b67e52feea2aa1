package bifrost

import (
	"slices"
	"strings"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/metrics"
)

func namedStrategy(name, service string, groups ...expmodel.UserGroup) *Strategy {
	return &Strategy{
		Name: name, Service: service, Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic:  TrafficSpec{CandidateWeight: 0.1, Groups: groups},
			Duration: time.Minute,
			Checks: []Check{{
				Name: "latency", Metric: "response_time",
				Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
				Interval: 10 * time.Second,
			}},
			OnSuccess: Transition{Kind: TransitionPromote},
		}},
	}
}

func TestVerifyNoConflicts(t *testing.T) {
	conflicts, err := Verify([]*Strategy{
		namedStrategy("a", "svc-a"),
		namedStrategy("b", "svc-b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 0 {
		t.Errorf("independent strategies flagged: %v", conflicts)
	}
}

func TestVerifySameService(t *testing.T) {
	conflicts, err := Verify([]*Strategy{
		namedStrategy("a", "catalog"),
		namedStrategy("b", "catalog"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) == 0 {
		t.Fatal("same-service conflict not detected")
	}
	if conflicts[0].Kind != ConflictSameService {
		t.Errorf("kind = %v", conflicts[0].Kind)
	}
	if !strings.Contains(conflicts[0].String(), "catalog") {
		t.Errorf("conflict string = %q", conflicts[0])
	}
}

func TestVerifyVersionClash(t *testing.T) {
	a := namedStrategy("a", "catalog")
	b := namedStrategy("b", "catalog")
	b.Baseline, b.Candidate = "v2", "v3" // b's baseline is a's candidate
	conflicts, err := Verify([]*Strategy{a, b})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, c := range conflicts {
		if c.Kind == ConflictVersionClash {
			found = true
		}
	}
	if !found {
		t.Errorf("version clash not detected: %v", conflicts)
	}
}

func TestVerifySharedGroups(t *testing.T) {
	conflicts, err := Verify([]*Strategy{
		namedStrategy("a", "svc-a", "beta", "eu"),
		namedStrategy("b", "svc-b", "beta"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 || conflicts[0].Kind != ConflictSharedGroups {
		t.Fatalf("conflicts = %v", conflicts)
	}
	if !strings.Contains(conflicts[0].Detail, "beta") {
		t.Errorf("detail = %q", conflicts[0].Detail)
	}
}

// TestVerifyIsTenantAware: verification compares what Engine.Launch and
// the Scheduler compare — tenant-qualified services and groups — so two
// tenants' same-named services or groups do not conflict, one tenant's
// do, and LaunchVerified refuses exactly what would collide.
func TestVerifyIsTenantAware(t *testing.T) {
	in := func(tenant string, s *Strategy) *Strategy {
		s.Tenant = tenant
		return s
	}
	clash := func(tenant string) *Strategy {
		s := in(tenant, namedStrategy("b", "catalog"))
		s.Baseline, s.Candidate = "v2", "v3"
		return s
	}
	for _, tc := range []struct {
		name string
		a, b *Strategy
		want []ConflictKind
	}{
		{"same service, two tenants", in("acme", namedStrategy("a", "catalog")), in("globex", namedStrategy("b", "catalog")), nil},
		{"same service, one tenant", in("acme", namedStrategy("a", "catalog")), in("acme", namedStrategy("b", "catalog")), []ConflictKind{ConflictSameService}},
		{"same service, default tenant spelled both ways", in("", namedStrategy("a", "catalog")), in("default", namedStrategy("b", "catalog")), []ConflictKind{ConflictSameService}},
		{"same service, a tenant and the default tenant", in("acme", namedStrategy("a", "catalog")), namedStrategy("b", "catalog"), nil},
		{"version clash, two tenants", in("acme", namedStrategy("a", "catalog")), clash("globex"), nil},
		{"version clash, one tenant", in("acme", namedStrategy("a", "catalog")), clash("acme"), []ConflictKind{ConflictSameService, ConflictVersionClash}},
		{"same group, two tenants", in("acme", namedStrategy("a", "svc-a", "beta")), in("globex", namedStrategy("b", "svc-b", "beta", "eu")), nil},
		{"same group, one tenant", in("acme", namedStrategy("a", "svc-a", "beta")), in("acme", namedStrategy("b", "svc-b", "eu", "beta")), []ConflictKind{ConflictSharedGroups}},
	} {
		conflicts, err := Verify([]*Strategy{tc.a, tc.b})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var kinds []ConflictKind
		for _, c := range conflicts {
			kinds = append(kinds, c.Kind)
		}
		if !slices.Equal(kinds, tc.want) {
			t.Errorf("%s: conflicts %v, want kinds %v", tc.name, conflicts, tc.want)
		}

		// What Verify reports is what LaunchVerified refuses beside a
		// running a, and what it passes, Launch accepts.
		h := newHarness(t)
		if _, _, err := h.engine.LaunchVerified(tc.a); err != nil {
			t.Fatalf("%s: launching a: %v", tc.name, err)
		}
		run, refused, err := h.engine.LaunchVerified(tc.b)
		if (len(tc.want) > 0) != (err != nil) || len(refused) != len(tc.want) || (err == nil) != (run != nil) {
			t.Errorf("%s: LaunchVerified(b) beside a = %v, %v, %v; want %d conflicts", tc.name, run, refused, err, len(tc.want))
		}
	}
}

func TestVerifyInvalidStrategy(t *testing.T) {
	if _, err := Verify([]*Strategy{{}}); err == nil {
		t.Error("invalid strategy should fail verification")
	}
}

func TestConflictKindString(t *testing.T) {
	for _, k := range []ConflictKind{ConflictSameService, ConflictSharedGroups, ConflictVersionClash} {
		if k.String() == "" {
			t.Error("empty conflict kind name")
		}
	}
	if ConflictKind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestLaunchVerified(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	h.seedMetrics("response_time", "cart", "v2", "", 10*time.Minute, 50)

	a := namedStrategy("a", "catalog")
	runA, conflicts, err := h.engine.LaunchVerified(a)
	if err != nil || len(conflicts) != 0 {
		t.Fatalf("first launch: %v %v", conflicts, err)
	}

	// Conflicting launch on the same service is refused.
	b := namedStrategy("b", "catalog")
	if _, conflicts, err := h.engine.LaunchVerified(b); err == nil || len(conflicts) == 0 {
		t.Fatalf("conflicting launch accepted: %v %v", conflicts, err)
	}

	// Independent launch is accepted.
	c := namedStrategy("c", "cart")
	runC, conflicts, err := h.engine.LaunchVerified(c)
	if err != nil || len(conflicts) != 0 {
		t.Fatalf("independent launch refused: %v %v", conflicts, err)
	}
	h.drive(t, runA)
	h.drive(t, runC)

	// Once a is finished, b may launch.
	if _, conflicts, err := h.engine.LaunchVerified(b); err != nil || len(conflicts) != 0 {
		t.Fatalf("post-completion launch refused: %v %v", conflicts, err)
	}
}

func TestLaunchVerifiedInvalid(t *testing.T) {
	h := newHarness(t)
	if _, _, err := h.engine.LaunchVerified(&Strategy{}); err == nil {
		t.Error("invalid strategy should fail")
	}
}
