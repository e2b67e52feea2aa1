package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"contexp/internal/journal"
)

// The coarse-tier contract: a day of 1-second traffic stays queryable
// at minute granularity long after the 1 s ring has wrapped, memory
// stays bounded, idle series age out under Maintain, and the minute and
// hour tiers survive a Snapshot/Restore round trip.

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

// snapshotRecords is what Snapshot emits for st, each record copied, in
// key order.
func snapshotRecords(t testing.TB, st *Store) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := st.Snapshot(func(rec []byte) error {
		recs = append(recs, slices.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(recs, bytes.Compare) // a record starts with its key
	return recs
}

// restoredStore is a fresh store restored from recs.
func restoredStore(t testing.TB, recs [][]byte) *Store {
	t.Helper()
	st := NewStore(0)
	for _, rec := range recs {
		if err := st.Restore(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSnapshotRoundTrip: a store restored from another's records answers
// every aggregation, quantiles included, bit for bit as the saved store
// does over every window its minute or hour tier answers, and saves to
// the same records. The saved series span more than the minute tier's
// reach, with late writes, gaps and minutes whose counts need two and
// four bytes a bin.
func TestSnapshotRoundTrip(t *testing.T) {
	st := NewStore(0)
	rng := rand.New(rand.NewSource(3))
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	scopes := []Scope{
		{Tenant: "acme", Service: "svc", Version: "v1"},
		{Tenant: "beta", Service: "svc", Version: "v1", Variant: "canary"},
		{Service: "checkout", Version: "v2"},
	}
	const span = 30 * time.Hour
	for at := time.Duration(0); at < span; at += time.Duration(20+rng.Intn(40)) * time.Second {
		for _, scope := range scopes {
			n := 1
			switch rng.Intn(200) {
			case 0:
				n = 300 // past a byte a bin
			case 1:
				n = 70_000 // past two
			}
			samples := make([]Sample, n)
			for i := range samples {
				samples[i] = Sample{Metric: "rt", Scope: scope, At: base.Add(at), Value: 5 * math.Exp(rng.NormFloat64())}
			}
			st.RecordBatch(samples)
			if rng.Intn(10) == 0 { // late into a sealed minute, or an hour
				st.Record("rt", scope, base.Add(at-time.Duration(5+rng.Intn(300))*time.Minute), 7)
			}
		}
	}
	now := base.Add(span)

	recs := snapshotRecords(t, st)
	if len(recs) != len(scopes) {
		t.Fatalf("%d records for %d series", len(recs), len(scopes))
	}
	st2 := restoredStore(t, recs)
	for _, scope := range scopes {
		for _, back := range []time.Duration{10 * time.Minute, time.Hour, 5 * time.Hour, 23 * time.Hour, 25 * time.Hour, 29 * time.Hour, 100 * time.Hour} {
			since := now.Add(-back)
			for _, agg := range allAggs {
				want, wantErr := st.Query("rt", scope, since, agg)
				got, err := st2.Query("rt", scope, since, agg)
				if wantErr != nil || err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v %v over the last %v: restored %v, %v; saved %v, %v", scope, agg, back, got, err, want, wantErr)
				}
			}
		}
	}
	if again := snapshotRecords(t, st2); !slices.EqualFunc(again, recs, bytes.Equal) {
		t.Error("the restored store saves to other records than the ones it was restored from")
	}
	if got := st2.TenantSeries(); got["acme"] != 1 || got["beta"] != 1 || got[""] != 1 {
		t.Fatalf("restored series by tenant: %v", got)
	}
	// A series the store holds is not restored over.
	if err := st2.Restore(recs[0]); err == nil {
		t.Error("a record restored onto a series the store holds")
	}
	// Restored series carry a lastWriteNs, so retention still ages them.
	if n := st2.Maintain(now.Add(48*time.Hour), 24*time.Hour); n != len(scopes) {
		t.Fatalf("restored series should age out, evicted %d", n)
	}
}

// TestSnapshotRacingWriters: Snapshot encodes each series' views after
// unlocking it, while writers append new intervals, fold late ones and
// regrow the views: every record it emits restores (and -race sees no
// write to what it reads).
func TestSnapshotRacingWriters(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	scopes := []Scope{{Service: "a", Version: "v1"}, {Service: "b", Version: "v1"}}
	const writes = 10_000
	var wg sync.WaitGroup
	for w, scope := range scopes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range writes {
				at := base.Add(time.Duration(i) * 7 * time.Second)
				if rng.Intn(4) == 0 { // late, into a sealed minute or hour
					at = at.Add(-time.Duration(5+rng.Intn(600)) * time.Minute)
				}
				st.Record("rt", scope, at, 5*math.Exp(rng.NormFloat64()))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for saves := 0; ; saves++ {
		select {
		case <-done:
			if saves == 0 {
				t.Fatal("no save ran beside the writers")
			}
			return
		default:
		}
		for _, rec := range snapshotRecords(t, st) {
			if err := NewStore(0).Restore(rec); err != nil {
				t.Fatalf("save %d: %v", saves, err)
			}
		}
	}
}

// TestSnapshotV1Fixture: testdata holds a file in the JSON format the
// snapshot had before it carried sketches (six hours of two samples every
// five minutes). Its first four bytes, read as a frame length, are over
// journal.MaxRecord, so reading it is an error and restores nothing; the
// daemon then boots without the history and its next save replaces the
// file.
func TestSnapshotV1Fixture(t *testing.T) {
	st := NewStore(0)
	if err := journal.ReadFile("testdata/snapshot_v1.json", st.Restore); err == nil {
		t.Fatal("the v1 fixture was read")
	}
	if n := st.SeriesCount(); n != 0 {
		t.Errorf("a rejected v1 file restored %d series", n)
	}

	// The path the daemon takes: the store's records written and read
	// back through the journal's file framing, over the old file.
	saved := NewStore(0)
	scope := Scope{Tenant: "acme", Service: "checkout", Version: "v2"}
	now := time.Date(2026, 8, 1, 6, 0, 0, 0, time.UTC)
	for i := 0; i < 72; i++ {
		saved.Record("response_time", scope, now.Add(-time.Duration(i)*5*time.Minute), float64(10+i%60))
	}
	path := filepath.Join(t.TempDir(), "metrics-rollups.json")
	v1, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteFile(path, saved.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := journal.ReadFile(path, st.Restore); err != nil {
		t.Fatal(err)
	}
	for _, agg := range allAggs {
		want, _ := saved.Query("response_time", scope, now.Add(-5*time.Hour), agg)
		if got, err := st.Query("response_time", scope, now.Add(-5*time.Hour), agg); err != nil || got != want {
			t.Errorf("%v over 5 h read back = %v, %v; saved %v", agg, got, err, want)
		}
	}
}

// savedBucket is a bucket as a test writes it into a record by hand.
type savedBucket struct {
	idx, count int64
	lo, width  uint8
	counts     []uint32
}

// handRecord encodes a record of one series, key "k", as Snapshot lays
// one out.
func handRecord(minute, hour []savedBucket) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, 1)
	rec = append(rec, 'k')
	for _, tier := range [][]savedBucket{minute, hour} {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(tier)))
		for _, b := range tier {
			for _, x := range []uint64{uint64(b.idx), uint64(b.count), math.Float64bits(1), math.Float64bits(1),
				math.Float64bits(1), uint64(b.idx * 60e9), uint64(b.idx * 60e9)} {
				rec = binary.LittleEndian.AppendUint64(rec, x)
			}
			rec = append(rec, b.lo, uint8(len(b.counts)), b.width)
			for _, c := range b.counts {
				rec = binary.LittleEndian.AppendUint32(rec, c)[:len(rec)+int(b.width)]
			}
		}
	}
	return rec
}

// TestSnapshotRecordRejects: Restore accepts what sealing makes and
// nothing else — every check is held to a record that fails it alone.
func TestSnapshotRecordRejects(t *testing.T) {
	const m = 28_000_000 // a minute index
	ok := []savedBucket{{m, 3, 10, 1, []uint32{2, 0, 1}}, {m + 1, 300, 7, 2, []uint32{300}}}
	hour := []savedBucket{{m / 60, 303, 7, 2, []uint32{300, 0, 0, 2, 0, 1}}}
	if err := NewStore(0).Restore(handRecord(ok, hour)); err != nil {
		t.Fatalf("a record sealing makes: %v", err)
	}
	with := func(i int, edit func(b *savedBucket)) []savedBucket {
		out := slices.Clone(ok)
		edit(&out[i])
		return out
	}
	for name, minute := range map[string][]savedBucket{
		"wider than its counts": with(0, func(b *savedBucket) { b.width = 2 }),
		"width 3":               with(0, func(b *savedBucket) { b.width = 3 }),
		"no bins":               with(0, func(b *savedBucket) { b.counts, b.count = nil, 0 }),
		"past the sketch":       with(0, func(b *savedBucket) { b.lo = histSize - 2 }),
		"an empty first bin":    with(0, func(b *savedBucket) { b.counts = []uint32{0, 2, 1} }),
		"an empty last bin":     with(0, func(b *savedBucket) { b.counts = []uint32{2, 1, 0} }),
		"fewer counts":          with(0, func(b *savedBucket) { b.count = 4 }),
		"intervals repeated":    with(1, func(b *savedBucket) { b.idx = m }),
		"intervals reversed":    with(1, func(b *savedBucket) { b.idx = m - 1 }),
		"beyond the reach":      with(1, func(b *savedBucket) { b.idx = m + minuteSlots }),
		"an index no time has":  with(1, func(b *savedBucket) { b.idx = math.MaxInt64 }),
	} {
		if err := NewStore(0).Restore(handRecord(minute, hour)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := NewStore(0).Restore(handRecord(with(1, func(b *savedBucket) { b.idx = m + minuteSlots - 1 }), hour)); err != nil {
		t.Errorf("the last interval the reach holds: %v", err)
	}
	good := handRecord(ok, hour)
	for n := range len(good) {
		if err := NewStore(0).Restore(good[:n]); err == nil {
			t.Fatalf("the record cut to %d of %d bytes: accepted", n, len(good))
		}
	}
	if err := NewStore(0).Restore(append(good, 0)); err == nil {
		t.Error("a trailing byte: accepted")
	}
}

// FuzzSnapshotRecord: Restore takes outside input. On any bytes it does
// not panic, and allocates what the record's length implies and a fixed
// amount beside (the series, and its up to eight live buckets); a record
// it accepts is one Snapshot writes — saving the restored series gives
// the same bytes — and the restored tiers pass the layout check the
// shadow-ring tests hold views to.
func FuzzSnapshotRecord(f *testing.F) {
	base := time.Unix(1_700_000_000, 0)
	seed := NewStore(0)
	seed.Record("rt", scopeV1, base, 1) // one interval
	for i := 0; i < 26*60; i += 97 {    // beyond the minute tier's reach
		seed.Record("rt", scopeV2, base.Add(time.Duration(i)*time.Minute), float64(i%90))
	}
	wide := Scope{Service: "wide", Version: "v1"}
	for i, n := range []int{255, 256, 65535, 65536, 3} { // every width, sealed and live
		samples := make([]Sample, n)
		for k := range samples {
			samples[k] = Sample{Metric: "rt", Scope: wide, At: base.Add(time.Duration(i) * time.Minute), Value: 40}
		}
		seed.RecordBatch(samples)
	}
	seed.Record("rt", wide, base.Add(-2*time.Hour), 0.5) // late into the hour tier
	for _, rec := range snapshotRecords(f, seed) {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		st := NewStore(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.Restore(rec)
		runtime.ReadMemStats(&after)
		const fixed = 16 << 10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(rec))+fixed {
			t.Fatalf("restoring a %d-byte record allocated %d bytes", len(rec), alloc)
		}
		if err != nil {
			return
		}
		if again := snapshotRecords(t, st); len(again) != 1 || !bytes.Equal(again[0], rec) {
			t.Fatalf("an accepted record saves to other bytes")
		}
		for _, s := range st.published() {
			for _, tier := range savedTiers {
				if err := s.tiers[tier].layoutErr(); err != nil {
					t.Fatalf("restored tier %d: %v", tier, err)
				}
			}
		}
	})
}
