package scenario

import (
	"math"
	"testing"
	"time"

	"contexp/internal/microsim"
)

var testTarget = Target{Service: "api", Candidate: "v2", Dependency: "backend"}

func TestCatalogCompiles(t *testing.T) {
	specs := Catalog(testTarget)
	if len(specs) < 6 {
		t.Fatalf("catalog has %d scenarios, the grading matrix needs at least 6", len(specs))
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec.Name] {
			t.Errorf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		sc, err := spec.Compile()
		if err != nil {
			t.Errorf("%s: compile: %v", spec.Name, err)
			continue
		}
		if sc.Duration <= 0 || sc.Rate == nil {
			t.Errorf("%s: compiled scenario incomplete: %+v", spec.Name, sc)
		}
		// Rates must be non-negative over the whole run.
		for el := time.Duration(0); el <= sc.Duration; el += sc.Duration / 64 {
			if r := sc.Rate(el); r < 0 || math.IsNaN(r) {
				t.Errorf("%s: rate(%s) = %v", spec.Name, el, r)
			}
		}
	}
	for _, required := range []string{
		ScenarioSteady, ScenarioRamp, ScenarioFlashCrowd, ScenarioDiurnal,
		ScenarioErrorStorm, ScenarioBlackout,
	} {
		if !seen[required] {
			t.Errorf("catalog is missing required scenario %q", required)
		}
	}
}

func TestByName(t *testing.T) {
	spec, err := ByName(testTarget, ScenarioErrorStorm)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Faults) != 1 || spec.Faults[0].Service != "api" || spec.Faults[0].Version != "v2" {
		t.Errorf("error storm should target the candidate, got %+v", spec.Faults)
	}
	if _, err := ByName(testTarget, "nonexistent"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	steady := ArrivalSpec{Process: ProcessSteady, RPS: 10}
	window := func(f FaultSpec) FaultSpec {
		f.Duration = 5 * time.Second
		return f
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty spec", Spec{}},
		{"no duration", Spec{Name: "x", Arrival: steady}},
		{"no process", Spec{Name: "x", Duration: 10 * time.Second}},
		{"unknown process", Spec{Name: "x", Duration: 10 * time.Second, Arrival: ArrivalSpec{Process: "warp"}}},
		{"steady without rps", Spec{Name: "x", Duration: 10 * time.Second, Arrival: ArrivalSpec{Process: ProcessSteady}}},
		{"burst without window", Spec{Name: "x", Duration: 10 * time.Second, Arrival: ArrivalSpec{Process: ProcessBurst, RPS: 10, Factor: 2}}},
		{"bad fault kind", Spec{Name: "x", Duration: 10 * time.Second, Arrival: steady,
			Faults: []FaultSpec{window(FaultSpec{Kind: "meteor", Service: "s"})}}},
		{"fault without service", Spec{Name: "x", Duration: 10 * time.Second, Arrival: steady,
			Faults: []FaultSpec{window(FaultSpec{Kind: "blackout"})}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
		if _, err := c.spec.Compile(); err == nil {
			t.Errorf("%s: expected a compile error", c.name)
		}
	}
}

func TestInjectorFromScenario(t *testing.T) {
	spec, err := ByName(testTarget, ScenarioBlackout)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	in, err := sc.Injector(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatal("blackout scenario should yield an injector")
	}
	if got := activeFaults(in, epoch.Add(50*time.Second)); got != 1 {
		t.Errorf("active faults inside window = %d", got)
	}
	if got := activeFaults(in, epoch); got != 0 {
		t.Errorf("active faults before window = %d", got)
	}

	// A fault-free scenario yields no injector.
	steady, err := ByName(testTarget, ScenarioSteady)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := steady.Compile()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := sc2.Injector(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if in2 != nil {
		t.Error("steady scenario should have no injector")
	}
}

// activeFaults counts the injector's faults whose window covers at.
func activeFaults(in *microsim.Injector, at time.Time) int {
	n := 0
	for _, f := range in.Snapshot(at) {
		if f.Active {
			n++
		}
	}
	return n
}
