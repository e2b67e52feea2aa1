package wire

import (
	"bytes"
	"math"
	"testing"
	"time"

	"contexp/internal/router"
)

// FuzzWireDecode throws arbitrary bytes at both decoders: they must
// reject malformed frames with an error, never panic or over-read.
// Corpus seeds are real frames from the round-trip fixtures, so
// mutation starts from structurally valid inputs. An accepted frame
// must reach a canonical fixpoint, as FuzzSnapshotDecode's do: its
// re-encoding decodes to the same values (floats compared as bits, so
// NaN holds), and encoding those once more gives the same bytes. A
// hand-made frame may differ from its re-encoding — unused dictionary
// strings, a wider index than its count needs, a per-row at column of
// one stamp — but the encoder's own output may not.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireFuzzSeeds() { // golden_test.go pins their re-encoding
		f.Add(seed)
	}
	f.Add(rewindDeltaFrame()) // a delta, which both decoders must refuse by kind

	f.Fuzz(func(t *testing.T, frame []byte) {
		var md, md2 MetricsDecoder
		if samples, err := md.Decode(frame); err == nil {
			var e MetricsEncoder
			canon := append([]byte(nil), e.Encode(samples)...)
			again, err := md2.Decode(canon)
			if err != nil {
				t.Fatalf("canonical metrics frame rejected: %v", err)
			}
			if len(again) != len(samples) {
				t.Fatalf("canonical frame holds %d samples, want %d", len(again), len(samples))
			}
			for i, s := range samples {
				g := again[i]
				if g.Metric != s.Metric || g.Scope != s.Scope || !g.At.Equal(s.At) ||
					math.Float64bits(g.Value) != math.Float64bits(s.Value) {
					t.Fatalf("sample %d: %+v after a re-encoding, want %+v", i, g, s)
				}
			}
			var e2 MetricsEncoder
			if !bytes.Equal(e2.Encode(again), canon) {
				t.Fatal("metrics canonical form is not a fixpoint")
			}
		}
		var sd, sd2 SpansDecoder
		if spans, err := sd.Decode(frame); err == nil {
			var e SpansEncoder
			canon := append([]byte(nil), e.Encode(spans)...)
			again, err := sd2.Decode(canon)
			if err != nil {
				t.Fatalf("canonical spans frame rejected: %v", err)
			}
			if len(again) != len(spans) {
				t.Fatalf("canonical frame holds %d spans, want %d", len(again), len(spans))
			}
			for i, s := range spans {
				g := again[i]
				g.Start, s.Start = time.Time{}, time.Time{}
				if g != s || !again[i].Start.Equal(spans[i].Start) {
					t.Fatalf("span %d: %+v after a re-encoding, want %+v", i, again[i], spans[i])
				}
			}
			var e2 SpansEncoder
			if !bytes.Equal(e2.Encode(again), canon) {
				t.Fatal("spans canonical form is not a fixpoint")
			}
		}
	})
}

// rewindDeltaFrame is a removal delta whose ToVersion is 0: the delta
// decoder refuses it, so mutations start next to that check.
func rewindDeltaFrame() []byte {
	var de DeltaEncoder
	frame, err := de.Encode(router.TableDelta{FromVersion: 4, ToVersion: 0, Removes: []string{"svc"}})
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), frame...)
}

// FuzzSnapshotDecode throws arbitrary bytes at the routing snapshot,
// delta, and heartbeat decoders: malformed frames must error, never
// panic or over-allocate, and accepted frames must re-encode to the
// exact input bytes (the byte-identity invariant of the distribution
// protocol).
func FuzzSnapshotDecode(f *testing.F) {
	var se SnapshotEncoder
	if frame, err := se.Encode(demoSnapshot()); err == nil {
		f.Add(append([]byte(nil), frame...))
	}
	if frame, err := se.Encode(router.TableSnapshot{Version: 1}); err == nil {
		f.Add(append([]byte(nil), frame...))
	}
	var de DeltaEncoder
	delta := router.TableDelta{FromVersion: 1, ToVersion: 3,
		Upserts: demoSnapshot().Routes[:1], Removes: []string{"old"}}
	if frame, err := de.Encode(delta); err == nil {
		f.Add(append([]byte(nil), frame...))
	}
	f.Add(rewindDeltaFrame())
	f.Add(EncodeHeartbeat(12))
	f.Add([]byte{'C', 'X', Version, KindSnapshot, 0, 0, 0, 0})
	f.Add([]byte{'C', 'X', Version, KindDelta, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, frame []byte) {
		// Accepted frames must re-encode successfully, and the encoder's
		// output must be a fixpoint: a hand-crafted frame may order its
		// dictionary differently (or carry unused entries), but one
		// decode/encode round lands on the canonical byte form.
		var sd SnapshotDecoder
		if snap, err := sd.Decode(frame); err == nil {
			var e SnapshotEncoder
			canon, err := e.Encode(snap)
			if err != nil {
				t.Fatalf("re-encode of accepted snapshot failed: %v", err)
			}
			canon = append([]byte(nil), canon...)
			again, err := sd.Decode(canon)
			if err != nil {
				t.Fatalf("canonical snapshot frame rejected: %v", err)
			}
			var e2 SnapshotEncoder
			canon2, err := e2.Encode(again)
			if err != nil || !bytes.Equal(canon, canon2) {
				t.Fatalf("snapshot canonical form is not a fixpoint (%v)", err)
			}
		}
		var dd DeltaDecoder
		if delta, err := dd.Decode(frame); err == nil {
			var e DeltaEncoder
			canon, err := e.Encode(delta)
			if err != nil {
				t.Fatalf("re-encode of accepted delta failed: %v", err)
			}
			canon = append([]byte(nil), canon...)
			again, err := dd.Decode(canon)
			if err != nil {
				t.Fatalf("canonical delta frame rejected: %v", err)
			}
			var e2 DeltaEncoder
			canon2, err := e2.Encode(again)
			if err != nil || !bytes.Equal(canon, canon2) {
				t.Fatalf("delta canonical form is not a fixpoint (%v)", err)
			}
		}
		if v, err := DecodeHeartbeat(frame); err == nil {
			// Heartbeats have exactly one byte representation.
			if !bytes.Equal(EncodeHeartbeat(v), frame) {
				t.Fatal("accepted heartbeat did not re-encode byte-identically")
			}
		}
	})
}
