package wire

import (
	"bytes"
	"testing"

	"contexp/internal/router"
)

// FuzzWireDecode throws arbitrary bytes at both decoders: they must
// reject malformed frames with an error, never panic or over-read.
// Corpus seeds are real frames from the round-trip fixtures, so
// mutation starts from structurally valid inputs.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireFuzzSeeds() { // golden_test.go pins their re-encoding
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		var md MetricsDecoder
		if samples, err := md.Decode(frame); err == nil {
			// Accepted frames must round-trip through the encoder.
			var e MetricsEncoder
			if len(e.Encode(samples)) < HeaderSize {
				t.Fatal("re-encode produced short frame")
			}
		}
		var sd SpansDecoder
		if spans, err := sd.Decode(frame); err == nil {
			var e SpansEncoder
			if len(e.Encode(spans)) < HeaderSize {
				t.Fatal("re-encode produced short frame")
			}
		}
	})
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
