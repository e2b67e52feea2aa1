package router

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"contexp/internal/expmodel"
)

func twoArmRoute(service string, canaryWeight float64) Route {
	return Route{
		Service: service,
		Backends: []Backend{
			{Version: "v1", Weight: 1 - canaryWeight},
			{Version: "v2", Weight: canaryWeight},
		},
	}
}

// remove deletes service's route with a one-entry delta; like any
// mutation, it advances the version even when there is no such route.
func remove(t testing.TB, tbl *Table, service string) {
	t.Helper()
	v := tbl.Version()
	if err := tbl.ApplyDelta(TableDelta{FromVersion: v, ToVersion: v + 1, Removes: []string{service}}); err != nil {
		t.Fatal(err)
	}
}

func TestSetValidation(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(Route{Service: "s"}); err == nil {
		t.Error("route without backends should fail")
	}
	if err := tbl.Set(Route{Service: "s", Backends: []Backend{{Version: "v1", Weight: -1}}}); err == nil {
		t.Error("negative weight should fail")
	}
	if err := tbl.Set(Route{Service: "s", Backends: []Backend{{Version: "v1", Weight: 0}}}); err == nil {
		t.Error("zero total weight should fail")
	}
	if err := tbl.Set(twoArmRoute("s", 0.2)); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
}

func TestWeightNormalization(t *testing.T) {
	tbl := NewTable()
	// Weights 3:1 normalize to 0.75 / 0.25.
	err := tbl.Set(Route{Service: "s", Backends: []Backend{
		{Version: "v1", Weight: 3}, {Version: "v2", Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Route("s")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Backends[0].Weight-0.75) > 1e-12 {
		t.Errorf("normalized weight = %v", r.Backends[0].Weight)
	}
}

func TestResolveSplitProportions(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.2)); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var v2 int
	for i := 0; i < n; i++ {
		req := &Request{UserID: fmt.Sprintf("user-%d", i)}
		d, err := tbl.Resolve("catalog", req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Version == "v2" {
			v2++
		}
	}
	got := float64(v2) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("v2 share = %v, want ≈ 0.2", got)
	}
}

func TestResolveSticky(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.5)); err != nil {
		t.Fatal(err)
	}
	req := &Request{UserID: "alice"}
	first, err := tbl.Resolve("catalog", req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Sticky {
		t.Error("identified user should be sticky")
	}
	for i := 0; i < 100; i++ {
		d, _ := tbl.Resolve("catalog", req)
		if d.Version != first.Version {
			t.Fatal("sticky assignment changed between calls")
		}
	}
}

func TestStickySurvivesWeightShift(t *testing.T) {
	// Growing the canary arm must never move users who were already on
	// the canary back to baseline (monotone rollout).
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.1)); err != nil {
		t.Fatal(err)
	}
	onCanary := map[string]bool{}
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("user-%d", i)
		d, _ := tbl.Resolve("catalog", &Request{UserID: id})
		if d.Version == "v2" {
			onCanary[id] = true
		}
	}
	if err := tbl.SetWeights("catalog", []Backend{
		{Version: "v1", Weight: 0.5}, {Version: "v2", Weight: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	for id := range onCanary {
		d, _ := tbl.Resolve("catalog", &Request{UserID: id})
		if d.Version != "v2" {
			t.Fatalf("user %s fell off the canary when weights grew", id)
		}
	}
}

func TestRulesTakePrecedence(t *testing.T) {
	tbl := NewTable()
	route := twoArmRoute("catalog", 0)
	route.Rules = []Rule{
		{Name: "beta-users", Match: GroupMatcher{Group: "beta"}, Version: "v2"},
		{Name: "qa-header", Match: HeaderMatcher{Key: "X-QA", Value: "1"}, Version: "v2"},
	}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	d, _ := tbl.Resolve("catalog", &Request{UserID: "u", Groups: []expmodel.UserGroup{"beta"}})
	if d.Version != "v2" || d.Rule != "beta-users" {
		t.Errorf("group rule not applied: %+v", d)
	}
	qa := http.Header{}
	qa.Set("X-QA", "1")
	d, _ = tbl.Resolve("catalog", &Request{UserID: "u", Header: qa})
	if d.Version != "v2" || d.Rule != "qa-header" {
		t.Errorf("header rule not applied: %+v", d)
	}
	// Keys reach the matcher canonicalised by net/http; a rule written in
	// another case still names the same header.
	route.Rules[1].Match = HeaderMatcher{Key: "x-qa", Value: "1"}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	d, _ = tbl.Resolve("catalog", &Request{UserID: "u", Header: qa})
	if d.Version != "v2" || d.Rule != "qa-header" {
		t.Errorf("lower-case header rule not applied: %+v", d)
	}
	d, _ = tbl.Resolve("catalog", &Request{UserID: "u"})
	if d.Version != "v1" || d.Rule != "" {
		t.Errorf("fallthrough wrong: %+v", d)
	}
}

func TestMirrors(t *testing.T) {
	tbl := NewTable()
	route := twoArmRoute("catalog", 0)
	route.Mirrors = []string{"v2-dark"}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	d, _ := tbl.Resolve("catalog", &Request{UserID: "u"})
	if len(d.Mirrors) != 1 || d.Mirrors[0] != "v2-dark" {
		t.Errorf("mirrors = %v", d.Mirrors)
	}
}

func TestResolveNoRoute(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Resolve("ghost", &Request{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
	if _, err := tbl.Route("ghost"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Route err = %v", err)
	}
	if err := tbl.SetWeights("ghost", nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("SetWeights err = %v", err)
	}
}

func TestRemoveAndServices(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Set(twoArmRoute("b", 0.1))
	_ = tbl.Set(twoArmRoute("a", 0.1))
	svcs := tbl.Services()
	if len(svcs) != 2 || svcs[0] != "a" || svcs[1] != "b" {
		t.Errorf("Services = %v", svcs)
	}
	remove(t, tbl, "a")
	if len(tbl.Services()) != 1 {
		t.Error("Remove failed")
	}
	v := tbl.Version()
	remove(t, tbl, "nonexistent")
	if tbl.Version() != v+1 {
		t.Error("Version should bump on every mutation")
	}
}

func TestSetDoesNotAliasCallerSlices(t *testing.T) {
	tbl := NewTable()
	backends := []Backend{{Version: "v1", Weight: 1}}
	route := Route{Service: "s", Backends: backends}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	backends[0].Version = "hacked"
	r, _ := tbl.Route("s")
	if r.Backends[0].Version != "v1" {
		t.Error("table aliases caller-owned slice")
	}
}

// TestRouteReturnsDeepCopy is the regression test for the shallow-copy
// bug: Route() used to return a Route whose Rules/Backends/Mirrors
// slices aliased the live table, so callers could corrupt routing
// state.
func TestRouteReturnsDeepCopy(t *testing.T) {
	tbl := NewTable()
	route := twoArmRoute("catalog", 0.25)
	route.Rules = []Rule{{Name: "beta", Match: GroupMatcher{Group: "beta"}, Version: "v2"}}
	route.Mirrors = []string{"v3"}
	if err := tbl.Set(route); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every slice of the returned copy.
	got.Rules[0].Version = "hacked"
	got.Rules[0].Name = "hacked"
	got.Backends[0].Version = "hacked"
	got.Backends[0].Weight = 99
	got.Mirrors[0] = "hacked"

	fresh, err := tbl.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rules[0].Version != "v2" || fresh.Rules[0].Name != "beta" {
		t.Errorf("rules aliased live table: %+v", fresh.Rules[0])
	}
	if fresh.Backends[0].Version != "v1" || fresh.Backends[0].Weight != 0.75 {
		t.Errorf("backends aliased live table: %+v", fresh.Backends[0])
	}
	if fresh.Mirrors[0] != "v3" {
		t.Errorf("mirrors aliased live table: %v", fresh.Mirrors)
	}
	// Resolution still follows the uncorrupted table.
	d, err := tbl.Resolve("catalog", &Request{UserID: "u", Groups: []expmodel.UserGroup{"beta"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != "v2" || d.Rule != "beta" {
		t.Errorf("resolution affected by caller mutation: %+v", d)
	}
}

// TestResolveRacesSnapshotSwap races lock-free Resolve calls against
// continuous snapshot swaps from every mutation type. Run under -race
// this validates the copy-on-write publication protocol; in any mode it
// validates that readers always observe a complete, valid route.
func TestResolveRacesSnapshotSwap(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("s", 0.1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d, err := tbl.Resolve("s", &Request{UserID: fmt.Sprintf("u%d-%d", g, i)})
				if err != nil {
					t.Error(err)
					return
				}
				if d.Version != "v1" && d.Version != "v2" {
					t.Errorf("torn read: version %q", d.Version)
					return
				}
				if _, err := tbl.Route("s"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		w := float64(i%9+1) / 10
		if err := tbl.SetWeights("s", []Backend{
			{Version: "v1", Weight: 1 - w}, {Version: "v2", Weight: w},
		}); err != nil {
			t.Fatal(err)
		}
		route := twoArmRoute("s", w)
		switch i % 3 {
		case 0:
			route.Mirrors = []string{"v2"}
		case 2:
			route.Rules = []Rule{{Name: "beta", Match: GroupMatcher{Group: "beta"}, Version: "v2"}}
		}
		if err := tbl.Set(route); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if tbl.Version() == 0 {
		t.Error("snapshot version did not advance")
	}
}

func TestStickySaltReshuffles(t *testing.T) {
	tblA := NewTable()
	tblB := NewTable()
	ra := twoArmRoute("s", 0.5)
	rb := twoArmRoute("s", 0.5)
	rb.StickySalt = "experiment-2"
	_ = tblA.Set(ra)
	_ = tblB.Set(rb)
	var moved int
	const n = 2000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%d", i)
		da, _ := tblA.Resolve("s", &Request{UserID: id})
		db, _ := tblB.Resolve("s", &Request{UserID: id})
		if da.Version != db.Version {
			moved++
		}
	}
	// With a different salt roughly half the users should land elsewhere.
	if moved < n/4 {
		t.Errorf("salt change moved only %d/%d users", moved, n)
	}
}

func TestAnonymousNotSticky(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Set(twoArmRoute("s", 0.5))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		d, _ := tbl.Resolve("s", &Request{})
		if d.Sticky {
			t.Fatal("anonymous request flagged sticky")
		}
		seen[d.Version] = true
	}
	if len(seen) != 2 {
		t.Error("anonymous requests should spread over both arms")
	}
}

func TestResolveWeightsSumProperty(t *testing.T) {
	// Property: for any weights, resolution always returns one of the
	// configured versions.
	f := func(w1, w2, w3 float64, user string) bool {
		abs := func(x float64) float64 {
			x = math.Abs(x)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 100) + 0.001
		}
		tbl := NewTable()
		err := tbl.Set(Route{Service: "s", Backends: []Backend{
			{Version: "a", Weight: abs(w1)},
			{Version: "b", Weight: abs(w2)},
			{Version: "c", Weight: abs(w3)},
		}})
		if err != nil {
			return false
		}
		d, err := tbl.Resolve("s", &Request{UserID: user})
		if err != nil {
			return false
		}
		return d.Version == "a" || d.Version == "b" || d.Version == "c"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentResolveAndMutate(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Set(twoArmRoute("s", 0.1))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tbl.Resolve("s", &Request{UserID: fmt.Sprintf("u%d-%d", g, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		w := float64(i%10) / 10
		if w == 0 {
			w = 0.05
		}
		_ = tbl.SetWeights("s", []Backend{{Version: "v1", Weight: 1 - w}, {Version: "v2", Weight: w}})
	}
	close(stop)
	wg.Wait()
}

func TestTableString(t *testing.T) {
	tbl := NewTable()
	route := twoArmRoute("catalog", 0.25)
	route.Rules = []Rule{{Name: "beta", Match: GroupMatcher{Group: "beta"}, Version: "v2"}}
	route.Mirrors = []string{"v3"}
	_ = tbl.Set(route)
	s := tbl.String()
	for _, want := range []string{"catalog:", "beta", "mirror -> v3", "v2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestFNVMatchesStdlib pins the hand-folded FNV-1a to the stdlib
// hash/fnv stream: sticky user→arm assignments depend on this
// equivalence.
func TestFNVMatchesStdlib(t *testing.T) {
	inputs := []string{"", "a", "user-12345", "catalog\x00salt", "héllo"}
	for _, in := range inputs {
		std := fnv.New64a()
		_, _ = std.Write([]byte(in))
		if got := fnvString(fnvOffset64, in); got != std.Sum64() {
			t.Errorf("fnvString(%q) = %d, stdlib %d", in, got, std.Sum64())
		}
	}
	std := fnv.New64a()
	_, _ = std.Write([]byte{0x42})
	if got := fnvByte(fnvOffset64, 0x42); got != std.Sum64() {
		t.Errorf("fnvByte = %d, stdlib %d", got, std.Sum64())
	}
}
