package router

import (
	"errors"
	"testing"

	"contexp/internal/expmodel"
)

func demoRoute(service string) Route {
	return Route{
		Service: service,
		Rules: []Rule{
			{Name: "beta", Match: GroupMatcher{Group: expmodel.UserGroup("beta")}, Version: "v2"},
			{Name: "qa", Match: HeaderMatcher{Key: "X-QA", Value: "1"}, Version: "v2"},
		},
		Backends:   []Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}},
		Mirrors:    []string{"v3"},
		StickySalt: "exp-1",
	}
}

func TestExportDeepCopy(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Set(demoRoute("shop")); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Export()
	if snap.Version != 1 || len(snap.Routes) != 1 {
		t.Fatalf("export = version %d, %d routes", snap.Version, len(snap.Routes))
	}
	snap.Routes[0].Mirrors[0] = "mutated"
	snap.Routes[0].Backends[0].Weight = 42
	got, err := tbl.Route("shop")
	if err != nil {
		t.Fatal(err)
	}
	if got.Mirrors[0] != "v3" || got.Backends[0].Weight == 42 {
		t.Error("mutating an export leaked into the live table")
	}
}

func TestApplySnapshotAdoptsVersion(t *testing.T) {
	src := NewTable()
	for _, svc := range []string{"a", "b", "c"} {
		if err := src.Set(demoRoute(svc)); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewTable()
	if err := dst.ApplySnapshot(src.Export()); err != nil {
		t.Fatal(err)
	}
	if dst.Version() != src.Version() {
		t.Errorf("dst version %d, src %d", dst.Version(), src.Version())
	}
	if dst.String() != src.String() {
		t.Errorf("tables differ:\n%s\nvs:\n%s", dst.String(), src.String())
	}
}

func TestApplySnapshotRejectsInvalidWholesale(t *testing.T) {
	dst := NewTable()
	if err := dst.Set(demoRoute("keep")); err != nil {
		t.Fatal(err)
	}
	before := dst.String()
	bad := TableSnapshot{Version: 99, Routes: []Route{
		demoRoute("ok"),
		{Service: "broken"}, // no backends
	}}
	if err := dst.ApplySnapshot(bad); err == nil {
		t.Fatal("expected error for snapshot with invalid route")
	}
	if dst.String() != before || dst.Version() != 1 {
		t.Error("failed apply modified the table")
	}
}

func TestDiffAndApplyDelta(t *testing.T) {
	src := NewTable()
	if err := src.Set(demoRoute("a")); err != nil {
		t.Fatal(err)
	}
	if err := src.Set(demoRoute("b")); err != nil {
		t.Fatal(err)
	}
	old := src.Export()

	// One upsert (weights shift), one add, one remove — then an
	// absent-service removal that bumps the version with no content.
	if err := src.SetWeights("a", []Backend{{Version: "v1", Weight: 0.5}, {Version: "v2", Weight: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := src.Set(demoRoute("c")); err != nil {
		t.Fatal(err)
	}
	remove(t, src, "b")
	cur := src.Export()

	d := DiffSnapshots(old, cur)
	if d.FromVersion != old.Version || d.ToVersion != cur.Version {
		t.Fatalf("delta spans %d->%d, want %d->%d", d.FromVersion, d.ToVersion, old.Version, cur.Version)
	}
	if len(d.Upserts) != 2 || len(d.Removes) != 1 || d.Removes[0] != "b" {
		t.Fatalf("delta = %d upserts, removes %v", len(d.Upserts), d.Removes)
	}

	dst := NewTable()
	if err := dst.ApplySnapshot(old); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if dst.String() != src.String() || dst.Version() != src.Version() {
		t.Errorf("replayed table differs:\n%s\nvs:\n%s", dst.String(), src.String())
	}

	// Version-bump-only mutation diffs to an empty delta that still
	// advances the version.
	remove(t, src, "never-existed")
	next := src.Export()
	d2 := DiffSnapshots(cur, next)
	if len(d2.Upserts)+len(d2.Removes) != 0 || d2.ToVersion != next.Version {
		t.Errorf("empty-change delta = %+v", d2)
	}
	if err := dst.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if dst.Version() != next.Version {
		t.Errorf("dst version %d after empty delta, want %d", dst.Version(), next.Version)
	}
}

func TestApplyDeltaVersionSkew(t *testing.T) {
	dst := NewTable()
	if err := dst.Set(demoRoute("a")); err != nil {
		t.Fatal(err)
	}
	err := dst.ApplyDelta(TableDelta{FromVersion: 7, ToVersion: 8})
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
	// A bad upsert rejects before the version check mutates anything.
	err = dst.ApplyDelta(TableDelta{FromVersion: 1, ToVersion: 2, Upserts: []Route{{Service: "broken"}}})
	if err == nil || errors.Is(err, ErrVersionSkew) {
		t.Fatalf("err = %v, want compile error", err)
	}
	if dst.Version() != 1 {
		t.Errorf("version moved to %d on failed delta", dst.Version())
	}
}

// TestApplyDeltaOnlyMovesForward: a delta that chains onto the table's
// version but would rewind it (ToVersion 0) or leave it where it is is
// refused with ErrVersionSkew, and the table keeps its version and its
// routes; the removal it carries is not applied.
func TestApplyDeltaOnlyMovesForward(t *testing.T) {
	dst := NewTable()
	for _, svc := range []string{"a", "b"} {
		if err := dst.Set(demoRoute(svc)); err != nil {
			t.Fatal(err)
		}
	}
	at := dst.Version()
	for _, to := range []uint64{0, at - 1, at} {
		err := dst.ApplyDelta(TableDelta{FromVersion: at, ToVersion: to, Removes: []string{"a"}})
		if !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("delta %d -> %d: err = %v, want ErrVersionSkew", at, to, err)
		}
		if v := dst.Version(); v != at {
			t.Fatalf("delta %d -> %d moved the table to version %d", at, to, v)
		}
		if _, err := dst.Route("a"); err != nil {
			t.Fatalf("delta %d -> %d removed a route: %v", at, to, err)
		}
	}
}

func TestSubscribeCoalesces(t *testing.T) {
	tbl := NewTable()
	ch, cancel := tbl.Subscribe()
	defer cancel()
	// Three mutations with no intervening read: exactly one pending
	// notification (coalesced), and the table's state is the latest.
	for i := 0; i < 3; i++ {
		if err := tbl.Set(demoRoute("svc")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ch:
	default:
		t.Fatal("no notification after mutations")
	}
	select {
	case <-ch:
		t.Fatal("notifications did not coalesce")
	default:
	}
	if tbl.Version() != 3 {
		t.Errorf("version = %d", tbl.Version())
	}
	cancel()
	remove(t, tbl, "svc")
	select {
	case <-ch:
		t.Fatal("notified after cancel")
	default:
	}
}

func TestApplyNotifiesSubscribers(t *testing.T) {
	tbl := NewTable()
	ch, cancel := tbl.Subscribe()
	defer cancel()
	if err := tbl.ApplySnapshot(TableSnapshot{Version: 5, Routes: []Route{demoRoute("a")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("ApplySnapshot did not notify")
	}
	if err := tbl.ApplyDelta(TableDelta{FromVersion: 5, ToVersion: 6}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("ApplyDelta did not notify")
	}
}
