package bifrost

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
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

// BenchmarkRecoverBoot is a daemon's boot on a FileLog of 10⁴ finished
// two-phase runs, 18 records each, every tenth name relaunched once
// (1.1·10⁴ generations, ~2·10⁵ records): Recover's fold, compaction and
// rebuild. Each iteration recovers a fresh copy of the same log, so
// every one compacts the same superseded generations.
func BenchmarkRecoverBoot(b *testing.B) {
	const runs = 10_000
	template := b.TempDir()
	log, err := journal.Open(template, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var rec []byte
	write := func(name string, ev Event, dsl string, status RunStatus) {
		if rec, err = appendRecord(rec[:0], name, "", ev, dsl, status); err != nil {
			b.Fatal(err)
		}
		if err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	generation := func(i int, status RunStatus) {
		s := twoPhaseStrategy()
		s.Name = fmt.Sprintf("run-%05d", i)
		s.Phases[0].Checks[0].Interval = 15 * time.Second // 4 checks, then 3 in "ab"
		s.Phases[1].Checks[0].Interval = 20 * time.Second
		at := t0.Add(time.Duration(i) * time.Minute)
		write(s.Name, Event{At: at, Type: EventRunLaunched}, WriteDSL(s), 0)
		for _, p := range s.Phases {
			write(s.Name, Event{At: at, Type: EventPhaseEntered, Phase: p.Name}, "", 0)
			write(s.Name, Event{At: at, Type: EventTrafficApplied, Phase: p.Name,
				Detail: fmt.Sprintf("candidate-weight=%g%%", p.Traffic.CandidateWeight*100)}, "", 0)
			c := p.Checks[0]
			for d := c.Interval; d <= p.Duration; d += c.Interval {
				write(s.Name, Event{At: at.Add(d), Type: EventCheckResult, Phase: p.Name, Check: c.Name,
					Outcome: OutcomePass, Detail: "value=50"}, "", 0)
			}
			at = at.Add(p.Duration)
			write(s.Name, Event{At: at, Type: EventPhaseOutcome, Phase: p.Name, Outcome: OutcomePass}, "", 0)
			write(s.Name, Event{At: at, Type: EventTransition, Phase: p.Name, Detail: "next"}, "", 0)
		}
		write(s.Name, Event{At: at, Type: EventTrafficApplied, Detail: "candidate=100%"}, "", 0)
		write(s.Name, Event{At: at, Type: EventRunFinished, Detail: status.String()}, "", status)
	}
	for i := 0; i < runs; i++ {
		generation(i, StatusRolledBack)
	}
	for i := 0; i < runs; i += 10 {
		generation(i, StatusSucceeded)
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(template, "*.wal"))
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		for _, seg := range segments {
			data, err := os.ReadFile(seg)
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		log, err := journal.Open(dir, journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(Config{Table: router.NewTable(), Store: metrics.NewStore(0), Journal: log})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := eng.Recover(log)
		b.StopTimer()
		if err != nil || rep.Finished != runs || len(rep.Queued) != 0 {
			b.Fatalf("recover: %v, %s", err, rep)
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
