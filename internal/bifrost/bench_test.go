package bifrost

import (
	"testing"
	"time"

	"contexp/internal/journal"
)

func BenchmarkParseStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseStrategy(sampleDSL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteDSL(b *testing.B) {
	s, err := ParseStrategy(sampleDSL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := WriteDSL(s); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkVerifyPairwise(b *testing.B) {
	strategies := make([]*Strategy, 20)
	for i := range strategies {
		s := validStrategy()
		s.Name = s.Name + string(rune('a'+i))
		s.Service = "svc-" + string(rune('a'+i))
		strategies[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(strategies); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRecord is one journaled check-result on a run whose trail
// already holds 10⁴ events, through a FileLog with the default batched
// sync: the per-event cost the evaluation plane pays beside the check
// itself. It must not depend on the trail's length, and its one
// allocation is the event's detail string, dead once the record and the
// trail have copied its bytes.
func BenchmarkRunRecord(b *testing.B) {
	log, err := journal.Open(b.TempDir(), journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	r := longTrailRun(b, 10_000, log)
	at := t0.Add(3 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record(Event{At: at, Type: EventCheckResult, Phase: "canary", Check: "latency",
			Outcome: OutcomePass, Detail: valueDetail(42.17+float64(i&7), "")})
	}
}
