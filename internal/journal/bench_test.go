package journal

import (
	"sync"
	"testing"
)

// benchRecord approximates one journaled run event: a ~200-byte JSON
// envelope, the payload size the enactment loop appends per check
// evaluation.
var benchRecord = []byte(`{"run":"demo-canary-rollout","v":1,"at":"2017-12-11T09:00:00Z","type":"check-result","phase":"canary","check":"latency","outcome":1,"detail":"value=42.17"}`)

// BenchmarkJournalAppend measures the write-ahead cost added to the
// enactment loop: one framed append with batched fsync (the default
// policy). The acceptance bar is <10µs p50.
func BenchmarkJournalAppend(b *testing.B) {
	b.Run("file-batched-sync", func(b *testing.B) {
		log, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.SetBytes(int64(len(benchRecord)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := log.Append(benchRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Two appenders beside the syncer: an append that had to wait for
	// the group's write and fsync shows here, not in the serial arm.
	b.Run("file-batched-sync/parallel", func(b *testing.B) {
		log, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.SetBytes(int64(len(benchRecord)))
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := log.Append(benchRecord); err != nil {
						b.Error(err)
						return
					}
				}
			}((b.N + g) / 2)
		}
		wg.Wait()
	})
	b.Run("memory", func(b *testing.B) {
		log := &Memory{}
		b.SetBytes(int64(len(benchRecord)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := log.Append(benchRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The durability ceiling: what every append would cost if each one
	// paid its own fsync instead of joining a batch.
	b.Run("file-sync-every-append", func(b *testing.B) {
		log, err := Open(b.TempDir(), Options{SyncInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.SetBytes(int64(len(benchRecord)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := log.Append(benchRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalReplay measures recovery-side throughput.
func BenchmarkJournalReplay(b *testing.B) {
	log, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := log.Append(benchRecord); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := log.Replay(func([]byte) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d, want %d", count, n)
		}
	}
}
