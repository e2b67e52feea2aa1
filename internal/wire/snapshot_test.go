package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"contexp/internal/expmodel"
	"contexp/internal/router"
)

func demoSnapshot() router.TableSnapshot {
	tbl := router.NewTable()
	for i := 0; i < 4; i++ {
		svc := fmt.Sprintf("svc-%d", i)
		route := router.Route{
			Service: svc,
			Rules: []router.Rule{
				{Name: "beta", Match: router.GroupMatcher{Group: "beta"}, Version: "v2"},
				{Name: "qa", Match: router.HeaderMatcher{Key: "X-QA", Value: "1"}, Version: "v2"},
			},
			Backends:   []router.Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}},
			Mirrors:    []string{"v3"},
			StickySalt: "exp-1",
		}
		if err := tbl.Set(route); err != nil {
			panic(err)
		}
	}
	return tbl.Export()
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := demoSnapshot()
	var e SnapshotEncoder
	frame, err := e.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if Kind(frame) != KindSnapshot {
		t.Fatalf("kind = %d", Kind(frame))
	}
	var d SnapshotDecoder
	got, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != snap.Version || len(got.Routes) != len(snap.Routes) {
		t.Fatalf("decoded version %d / %d routes, want %d / %d",
			got.Version, len(got.Routes), snap.Version, len(snap.Routes))
	}
	// Install both sides into tables and compare the rendered form: the
	// codec must not change routing semantics in any visible way.
	a, b := router.NewTable(), router.NewTable()
	if err := a.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplySnapshot(got); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("tables differ after round trip:\n%s\nvs:\n%s", a, b)
	}
	// Re-encoding the decoded snapshot must reproduce the frame bytes.
	var e2 SnapshotEncoder
	frame2, err := e2.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Error("re-encode is not byte-identical")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := router.TableDelta{
		FromVersion: 7,
		ToVersion:   9,
		Upserts:     demoSnapshot().Routes[:2],
		Removes:     []string{"gone-1", "gone-2"},
	}
	var e DeltaEncoder
	frame, err := e.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if Kind(frame) != KindDelta {
		t.Fatalf("kind = %d", Kind(frame))
	}
	var dec DeltaDecoder
	got, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromVersion != 7 || got.ToVersion != 9 ||
		len(got.Upserts) != 2 || len(got.Removes) != 2 || got.Removes[1] != "gone-2" {
		t.Fatalf("decoded delta = %+v", got)
	}
	var e2 DeltaEncoder
	frame2, err := e2.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Error("re-encode is not byte-identical")
	}
}

func TestEmptySnapshotAndDelta(t *testing.T) {
	var se SnapshotEncoder
	frame, err := se.Encode(router.TableSnapshot{Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sd SnapshotDecoder
	snap, err := sd.Decode(frame)
	if err != nil || snap.Version != 3 || len(snap.Routes) != 0 {
		t.Fatalf("empty snapshot = %+v, %v", snap, err)
	}
	var de DeltaEncoder
	frame, err = de.Encode(router.TableDelta{FromVersion: 3, ToVersion: 4})
	if err != nil {
		t.Fatal(err)
	}
	var dd DeltaDecoder
	delta, err := dd.Decode(frame)
	if err != nil || len(delta.Upserts)+len(delta.Removes) != 0 || delta.ToVersion != 4 {
		t.Fatalf("empty delta = %+v, %v", delta, err)
	}
}

// TestDeltaDecoderRefusesRewind: a delta frame whose ToVersion does not
// lie past its FromVersion is a DecodeError, so an agent never hands
// the table a delta that would rewind it.
func TestDeltaDecoderRefusesRewind(t *testing.T) {
	for _, to := range []uint64{0, 6, 7} {
		var de DeltaEncoder
		frame, err := de.Encode(router.TableDelta{FromVersion: 7, ToVersion: to, Removes: []string{"a"}})
		if err != nil {
			t.Fatal(err)
		}
		var dd DeltaDecoder
		_, err = dd.Decode(frame)
		var de2 *DecodeError
		if !errors.As(err, &de2) {
			t.Fatalf("delta 7 -> %d: err = %v, want a DecodeError", to, err)
		}
	}
}

// customMatcher is not one of the two wire-encodable matcher types.
type customMatcher struct{}

func (customMatcher) Match(*router.Request) bool { return false }
func (customMatcher) String() string             { return "custom" }

func TestEncodeRejectsCustomMatcher(t *testing.T) {
	snap := router.TableSnapshot{Version: 1, Routes: []router.Route{{
		Service:  "svc",
		Rules:    []router.Rule{{Name: "odd", Match: customMatcher{}, Version: "v1"}},
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
	}}}
	var e SnapshotEncoder
	if _, err := e.Encode(snap); err == nil {
		t.Fatal("expected encode error for custom matcher")
	}
	var de DeltaEncoder
	if _, err := de.Encode(router.TableDelta{Upserts: snap.Routes}); err == nil {
		t.Fatal("expected encode error for custom matcher in delta")
	}
}

func TestSnapshotDecodeHostileInput(t *testing.T) {
	var e SnapshotEncoder
	valid, err := e.Encode(demoSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short header":  valid[:4],
		"bad magic":     append([]byte("XY"), valid[2:]...),
		"wrong kind":    func() []byte { f := append([]byte(nil), valid...); f[3] = KindMetrics; return f }(),
		"truncated":     append([]byte(nil), valid[:len(valid)-6]...),
		"length lies":   func() []byte { f := append([]byte(nil), valid...); f[4]++; return f }(),
		"trailing junk": func() []byte { f := append([]byte(nil), valid...); f = append(f, 0, 0, 0, 0); f[4] += 4; return f }(),
		// Count fields live right after the dictionary; corrupting the
		// route count to a huge value must fail the byte-budget check,
		// not allocate.
		"huge count": func() []byte {
			f := append([]byte(nil), valid...)
			f[len(f)-1], f[len(f)-2] = 0xFF, 0xFF
			return f
		}(),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			var d SnapshotDecoder
			if _, err := d.Decode(frame); err == nil {
				t.Errorf("decode accepted %s", name)
			}
			var de *DecodeError
			if _, err := d.Decode(frame); !errors.As(err, &de) {
				t.Errorf("error is %T, want *DecodeError", err)
			}
		})
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	frame := EncodeHeartbeat(42)
	if Kind(frame) != KindHeartbeat {
		t.Fatalf("kind = %d", Kind(frame))
	}
	v, err := DecodeHeartbeat(frame)
	if err != nil || v != 42 {
		t.Fatalf("decode = %d, %v", v, err)
	}
	if _, err := DecodeHeartbeat(frame[:10]); err == nil {
		t.Error("truncated heartbeat accepted")
	}
}

// TestReadFrameStream reads a snapshot and a heartbeat back to back
// through readers that return as little as they may, then streams cut
// short or declaring too much.
func TestReadFrameStream(t *testing.T) {
	var se SnapshotEncoder
	sframe, err := se.Encode(demoSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	sframe = bytes.Clone(sframe)
	hframe := EncodeHeartbeat(9)
	stream := append(bytes.Clone(sframe), hframe...)

	whole := []struct {
		name string
		r    func(io.Reader) io.Reader
	}{
		{"buffered", func(r io.Reader) io.Reader { return bufio.NewReader(r) }},
		{"unbuffered", func(r io.Reader) io.Reader { return r }},
		{"one byte a read", iotest.OneByteReader},
		{"half a request a read", iotest.HalfReader},
		{"EOF with the last bytes", iotest.DataErrReader},
	}
	for _, tt := range whole {
		t.Run(tt.name, func(t *testing.T) {
			r := tt.r(bytes.NewReader(stream))
			buf, err := ReadFrame(r, nil, 1<<20)
			if err != nil || !bytes.Equal(buf, sframe) {
				t.Fatalf("first frame: kind %d, %v; bytes equal %v", Kind(buf), err, bytes.Equal(buf, sframe))
			}
			// Sized from the header, not a fixed capacity.
			if cap(buf) < len(sframe) || cap(buf) >= 2*len(sframe) {
				t.Errorf("first frame of %d bytes read into capacity %d", len(sframe), cap(buf))
			}
			first := &buf[0]
			buf, err = ReadFrame(r, buf, 1<<20)
			if err != nil || !bytes.Equal(buf, hframe) {
				t.Fatalf("second frame: kind %d, %v", Kind(buf), err)
			}
			if &buf[0] != first {
				t.Error("a frame that fits the buffer was read into a new one")
			}
			if _, err = ReadFrame(r, buf, 1<<20); err != io.EOF {
				t.Fatalf("end of stream: %v, want io.EOF", err)
			}
		})
	}

	// A frame body exceeding the budget is rejected before any read.
	big := EncodeHeartbeat(1)
	big[4] = 0xFF
	big[5] = 0xFF
	cut := []struct {
		name    string
		stream  []byte
		wantSub string
	}{
		{"cut in the header", sframe[:5], "reading frame header"},
		{"cut in the body", sframe[:len(sframe)-3], "frame body"},
		{"cut in the second frame", stream[:len(stream)-1], "frame body"},
		{"bad magic", append([]byte("XC"), sframe[2:]...), "bad magic"},
		{"body over the limit", big, "exceeds limit"},
	}
	for _, tt := range cut {
		t.Run(tt.name, func(t *testing.T) {
			r := iotest.OneByteReader(bytes.NewReader(tt.stream))
			var buf []byte
			var err error
			for err == nil {
				buf, err = ReadFrame(r, buf, 1024)
			}
			var de *DecodeError
			if !errors.As(err, &de) || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("got %v, want a DecodeError containing %q", err, tt.wantSub)
			}
		})
	}
}

// TestRoutingDecodersHoldNoRunNames: every strategy's traffic route
// carries the run's name as its sticky salt, so an agent decodes a name
// it never sees again with every run the control plane launches. A
// routing decoder fed 20 000 such frames must hold no more than it held
// after 1 000; one that kept the names would grow by ~100 B a run.
func TestRoutingDecodersHoldNoRunNames(t *testing.T) {
	var (
		de DeltaEncoder
		dd DeltaDecoder
		se SnapshotEncoder
		sd SnapshotDecoder
	)
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			r := router.Route{Service: "checkout", StickySalt: fmt.Sprintf("checkout-canary-%05d", i),
				Backends: []router.Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}}}
			frame, err := de.Encode(router.TableDelta{FromVersion: uint64(i), ToVersion: uint64(i + 1), Upserts: []router.Route{r}})
			if err != nil {
				t.Fatal(err)
			}
			delta, err := dd.Decode(frame)
			if err != nil || delta.Upserts[0].StickySalt != r.StickySalt {
				t.Fatalf("delta %d: %+v, %v", i, delta, err)
			}
			frame, err = se.Encode(router.TableSnapshot{Version: uint64(i + 1), Routes: []router.Route{r}})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := sd.Decode(frame)
			if err != nil || snap.Routes[0].StickySalt != r.StickySalt {
				t.Fatalf("snapshot %d: %+v, %v", i, snap, err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	feed(0, 1_000)
	before := liveHeap()
	feed(1_000, 20_000)
	after := liveHeap()
	runtime.KeepAlive(&dd)
	runtime.KeepAlive(&sd)
	if grew := after - before; grew > 8<<10 {
		t.Errorf("decoders grew by %d B over 19 000 run names, want at most 8 KiB", grew)
	}
}

// TestSnapshotDeltaReplayProperty is the satellite property test: a
// receiver that applies the full snapshot of version 0 and then replays
// every wire-encoded delta reconstructs a byte-identical routing table
// at every intermediate version — both in rendered form and in
// re-encoded snapshot frames.
func TestSnapshotDeltaReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := router.NewTable()
	services := []string{"a", "b", "c", "d", "e"}

	randomRoute := func(svc string) router.Route {
		r := router.Route{Service: svc, StickySalt: fmt.Sprintf("salt-%d", rng.Intn(3))}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			r.Backends = append(r.Backends, router.Backend{
				Version: fmt.Sprintf("v%d", i+1), Weight: rng.Float64() + 0.01,
			})
		}
		if rng.Intn(2) == 0 {
			r.Rules = append(r.Rules, router.Rule{
				Name:    "grp",
				Match:   router.GroupMatcher{Group: expmodel.UserGroup(fmt.Sprintf("g%d", rng.Intn(2)))},
				Version: "v1",
			})
		}
		if rng.Intn(3) == 0 {
			r.Rules = append(r.Rules, router.Rule{
				Name:    "hdr",
				Match:   router.HeaderMatcher{Key: "X-T", Value: fmt.Sprintf("%d", rng.Intn(2))},
				Version: "v1",
			})
		}
		if rng.Intn(3) == 0 {
			r.Mirrors = append(r.Mirrors, "dark")
		}
		return r
	}

	// Drive 200 random mutations, capturing an export after each.
	history := []router.TableSnapshot{src.Export()}
	for i := 0; i < 200; i++ {
		svc := services[rng.Intn(len(services))]
		switch rng.Intn(4) {
		case 0, 1:
			if err := src.Set(randomRoute(svc)); err != nil {
				t.Fatal(err)
			}
		case 2:
			// May target an absent service: version bumps, no change.
			v := src.Version()
			if err := src.ApplyDelta(router.TableDelta{FromVersion: v, ToVersion: v + 1, Removes: []string{svc}}); err != nil {
				t.Fatal(err)
			}
		case 3:
			bk := []router.Backend{{Version: "v1", Weight: 0.5}, {Version: "v2", Weight: 0.5}}
			_ = src.SetWeights(svc, bk) // error when absent: no version bump
		}
		history = append(history, src.Export())
	}

	// Replay: full snapshot of history[0], then wire-encoded deltas.
	dst := router.NewTable()
	var se SnapshotEncoder
	var sd SnapshotDecoder
	frame, err := se.Encode(history[0])
	if err != nil {
		t.Fatal(err)
	}
	first, err := sd.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplySnapshot(first); err != nil {
		t.Fatal(err)
	}
	var de DeltaEncoder
	var dd DeltaDecoder
	for i := 1; i < len(history); i++ {
		if history[i].Version == history[i-1].Version {
			continue // rejected mutation: nothing to ship
		}
		dframe, err := de.Encode(router.DiffSnapshots(history[i-1], history[i]))
		if err != nil {
			t.Fatal(err)
		}
		delta, err := dd.Decode(dframe)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ApplyDelta(delta); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if dst.Version() != history[i].Version {
			t.Fatalf("step %d: version %d, want %d", i, dst.Version(), history[i].Version)
		}
		// Byte identity at every version: rendered tables match, and the
		// re-exported snapshot encodes to the same frame as the source's.
		if got, want := dst.String(), tableString(t, history[i]); got != want {
			t.Fatalf("step %d: tables diverge:\n%s\nvs:\n%s", i, got, want)
		}
		wantFrame, err := se.Encode(history[i])
		if err != nil {
			t.Fatal(err)
		}
		wantFrame = append([]byte(nil), wantFrame...) // se's buffer is reused below
		var se2 SnapshotEncoder
		gotFrame, err := se2.Encode(dst.Export())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantFrame, gotFrame) {
			t.Fatalf("step %d: snapshot frames not byte-identical", i)
		}
	}
}

// tableString renders a snapshot the way a table holding it would.
func tableString(t *testing.T, snap router.TableSnapshot) string {
	t.Helper()
	tbl := router.NewTable()
	if err := tbl.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return tbl.String()
}
