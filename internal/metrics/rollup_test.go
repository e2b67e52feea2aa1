package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// The coarse-tier contract: a day of 1-second traffic stays queryable
// at minute granularity long after the 1 s ring has wrapped, memory
// stays bounded, idle series age out under Maintain, and the minute and
// hour rings survive a Save/Load round trip.

func TestRollupsAnswerLongWindows(t *testing.T) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

	// 24 hours of one sample per simulated second — far past the 1 s
	// ring's few minutes of coverage.
	const day = 24 * 60 * 60
	for i := 0; i < day; i++ {
		st.Record("response_time", scope, base.Add(time.Duration(i)*time.Second), 10)
	}
	now := base.Add(day * time.Second)

	// A 12-hour window cannot come from the 1 s ring; the minute ring
	// answers it.
	since := now.Add(-12 * time.Hour)
	got, err := st.Query("response_time", scope, since, AggMean)
	if err != nil {
		t.Fatalf("12h mean: %v", err)
	}
	if math.Abs(got-10) > 0.01 {
		t.Fatalf("12h mean: want 10, got %v", got)
	}
	cnt, err := st.Query("response_time", scope, since, AggCount)
	if err != nil {
		t.Fatalf("12h count: %v", err)
	}
	// Windows snap to minute boundaries: allow one bucket of slack.
	if want := float64(12 * 60 * 60); math.Abs(cnt-want) > 60 {
		t.Fatalf("12h count: want ~%v, got %v", want, cnt)
	}

	// The full day answers too (minute ring holds exactly 24h).
	if _, err := st.Query("response_time", scope, now.Add(-23*time.Hour), AggMax); err != nil {
		t.Fatalf("23h max: %v", err)
	}
}

func TestRollupMemoryIsBoundedOverDays(t *testing.T) {
	st := NewStore(0)
	scope := Scope{Service: "svc", Version: "v1"}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

	// Three days of traffic, sparse (one sample per minute) to keep the
	// test fast. The minute tier wraps after day one; the hour tier
	// carries the rest. Nothing grows past the tiers' reaches.
	const days = 3
	for i := 0; i < days*24*60; i++ {
		st.Record("response_time", scope, base.Add(time.Duration(i)*time.Minute), float64(i%100))
	}
	s := st.lookupBytes([]byte(seriesKey("response_time", scope)))
	if s == nil {
		t.Fatal("series missing")
	}
	s.mu.Lock()
	minuteLen, hourLen := len(s.tiers[tierMinute].sealed.buckets), len(s.tiers[tierHour].sealed.buckets)
	s.mu.Unlock()
	if minuteLen > minuteSlots-liveBuckets || minuteLen < minuteSlots/2 || hourLen > hourSlots-liveBuckets || hourLen < days*24-liveBuckets {
		t.Fatalf("views outside their bounds: minute=%d hour=%d", minuteLen, hourLen)
	}

	// A window beyond the minute ring's 24h reach falls to the hour
	// tier instead of failing.
	now := base.Add(days * 24 * time.Hour)
	if _, err := st.Query("response_time", scope, now.Add(-60*time.Hour), AggCount); err != nil {
		t.Fatalf("60h count via hour tier: %v", err)
	}
}

func TestMaintainEvictsIdleSeries(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	st.Record("response_time", Scope{Tenant: "acme", Service: "svc", Version: "v1"}, base, 1)
	st.Record("response_time", Scope{Tenant: "beta", Service: "svc", Version: "v1"}, base.Add(20*time.Hour), 1)

	// Retention 24h at base+30h: acme's series (idle 30h) goes, beta's
	// (idle 10h) stays.
	evicted := st.Maintain(base.Add(30*time.Hour), 24*time.Hour)
	if evicted != 1 {
		t.Fatalf("want 1 eviction, got %d", evicted)
	}
	series := st.TenantSeries()
	if series["acme"] != 0 || series["beta"] != 1 {
		t.Fatalf("want acme evicted and beta live, got %v", series)
	}

	// idleFor <= 0 disables eviction.
	if n := st.Maintain(base.Add(1000*time.Hour), 0); n != 0 {
		t.Fatalf("disabled retention evicted %d series", n)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := NewStore(0)
	scope := Scope{Tenant: "acme", Service: "svc", Version: "v1"}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6*60; i++ {
		st.Record("response_time", scope, base.Add(time.Duration(i)*time.Minute), 42)
	}
	now := base.Add(6 * time.Hour)

	path := filepath.Join(t.TempDir(), "rollups.json")
	if err := st.SaveSnapshot(path, now); err != nil {
		t.Fatal(err)
	}

	// A fresh store (a restarted daemon) answers the long window from
	// the restored rings even though its 1 s ring is empty.
	st2 := NewStore(0)
	if err := st2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := st2.Query("response_time", scope, now.Add(-5*time.Hour), AggMean)
	if err != nil {
		t.Fatalf("restored query: %v", err)
	}
	if math.Abs(got-42) > 0.01 {
		t.Fatalf("restored mean: want 42, got %v", got)
	}
	if n := st2.TenantSeries()["acme"]; n != 1 {
		t.Fatalf("restored store should hold acme's series, got %v", st2.TenantSeries())
	}

	// Restored series carry a lastWrite, so retention still ages them.
	if n := st2.Maintain(now.Add(48*time.Hour), 24*time.Hour); n != 1 {
		t.Fatalf("restored series should age out, evicted %d", n)
	}

	// Missing snapshot file is a clean no-op (first boot).
	st3 := NewStore(0)
	if err := st3.LoadSnapshot(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing snapshot should not error: %v", err)
	}
}

// TestSnapshotLoadsSlotOrder: until the tiers kept their history in a
// view, a snapshot listed a ring's buckets in slot order — index order
// rotated at wherever the ring had wrapped. Such a file restores to what
// the same buckets in index order restore to, and is written back in
// index order.
func TestSnapshotLoadsSlotOrder(t *testing.T) {
	st := NewStore(0)
	scope := Scope{Tenant: "acme", Service: "svc", Version: "v1"}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30*60; i += 3 { // past the minute tier's reach
		st.Record("response_time", scope, base.Add(time.Duration(i)*time.Minute), float64(i%90))
	}
	now := base.Add(30 * time.Hour)
	dir := t.TempDir()
	inOrder, rotated, resaved := filepath.Join(dir, "in-order.json"), filepath.Join(dir, "rotated.json"), filepath.Join(dir, "resaved.json")
	if err := st.SaveSnapshot(inOrder, now); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(inOrder)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(want, &snap); err != nil {
		t.Fatal(err)
	}
	for i := range snap.Series {
		ss := &snap.Series[i]
		ss.Minute = append(slices.Clone(ss.Minute[100:]), ss.Minute[:100]...)
		ss.Hour = append(slices.Clone(ss.Hour[7:]), ss.Hour[:7]...)
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rotated, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(0)
	if err := st2.LoadSnapshot(rotated); err != nil {
		t.Fatal(err)
	}
	for _, back := range []time.Duration{time.Hour, 20 * time.Hour, 29 * time.Hour} {
		for _, agg := range exactAggs {
			got, err := st2.Query("response_time", scope, now.Add(-back), agg)
			want, wantErr := st.Query("response_time", scope, now.Add(-back), agg)
			if got != want || !errors.Is(err, wantErr) {
				t.Errorf("%v over the last %v: restored %v, %v; the saved store %v, %v", agg, back, got, err, want, wantErr)
			}
		}
	}
	if err := st2.SaveSnapshot(resaved, now); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(resaved); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a slot-order snapshot was not written back in index order (err %v)", err)
	}
}

// TestSnapshotV1Fixture pins the snapshot file format: testdata holds a
// schema-v1 file written before the rings carried sketches (six hours
// of two samples every five minutes). It must load, answer the exact
// aggregates over a 5 h window, refuse quantiles over buckets that came
// without a sketch, and be written back byte for byte.
func TestSnapshotV1Fixture(t *testing.T) {
	const fixture = "testdata/snapshot_v1.json"
	scope := Scope{Tenant: "acme", Service: "checkout", Version: "v2"}
	now := time.Date(2026, 8, 1, 6, 0, 0, 0, time.UTC)
	since := now.Add(-5 * time.Hour)

	st := NewStore(0)
	if err := st.LoadSnapshot(fixture); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		agg  Aggregation
		want float64
	}{{AggCount, 120}, {AggMean, 4580.0 / 120}, {AggMax, 69}, {AggMin, 10}} {
		if got, err := st.Query("response_time", scope, since, tt.agg); err != nil || math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("restored %v = %v, %v; want %v", tt.agg, got, err, tt.want)
		}
	}
	if _, err := st.Query("response_time", scope, since, AggP95); !errors.Is(err, ErrNoData) {
		t.Errorf("p95 over sketch-less buckets: err = %v, want ErrNoData", err)
	}

	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.json")
	if err := st.SaveSnapshot(resaved, now); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(resaved); err != nil || !bytes.Equal(got, want) {
		t.Errorf("re-saved snapshot differs from the v1 fixture (err %v)", err)
	}

	// Samples after the restart land in rings that never saw the
	// restored history; the long window must still include it, and a
	// quantile over fresh buckets only works again.
	st.Record("response_time", scope, now, 50)
	if got, err := st.Query("response_time", scope, since, AggCount); err != nil || got != 121 {
		t.Errorf("count after a post-restart sample = %v, %v; want 121", got, err)
	}
	if got, err := st.Query("response_time", scope, now, AggP95); err != nil || math.Abs(got-50)/50 > 0.05 {
		t.Errorf("p95 over post-restart samples = %v, %v; want 50 ±5%%", got, err)
	}
}
