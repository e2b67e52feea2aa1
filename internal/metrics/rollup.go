package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// This file is the long-uptime side of the store: idle-series eviction
// (Maintain), per-tenant series accounting (TenantSeries), and
// persistence of the minute and hour tiers (SaveSnapshot/LoadSnapshot)
// so long-window history survives a daemon restart.

// --- maintenance ---

// Maintain evicts series whose newest observation is older than
// idleFor relative to now, bounding store memory over long uptimes: a
// finished experiment's series disappear once nothing has written to
// them for the retention window.
// idleFor <= 0 disables eviction. Returns the number of evicted
// series. Run it periodically (contexpd's maintenance loop does).
func (st *Store) Maintain(now time.Time, idleFor time.Duration) int {
	if idleFor <= 0 {
		return 0
	}
	cutoff := now.Add(-idleFor)
	evicted := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for key, s := range sh.series {
			// The verdict and the mark are one step under s.mu, and the
			// shard stays locked until the entry is gone: a writer either
			// records before the verdict (and is seen by it) or finds the
			// mark and re-resolves once the shard is free (Store.lockSeries).
			s.mu.Lock()
			s.evicted = !s.lastWrite.IsZero() && s.lastWrite.Before(cutoff)
			idle := s.evicted
			s.mu.Unlock()
			if idle {
				delete(sh.series, key)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// TenantSeries counts live series per canonical tenant (the series
// key's leading segment). The ops surfaces render the empty key as
// "default".
func (st *Store) TenantSeries() map[string]int {
	out := make(map[string]int)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for key := range sh.series {
			tenant, _, _ := strings.Cut(key, "\x00")
			out[tenant]++
		}
		sh.mu.RUnlock()
	}
	return out
}

// --- rollup persistence ---

// snapshotVersion is bumped when the snapshot schema changes
// incompatibly; LoadSnapshot rejects newer versions.
const snapshotVersion = 1

type snapshotBucket struct {
	Idx     int64   `json:"idx"`
	Count   int     `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	FirstAt int64   `json:"firstAt"` // unix nanos
	LastAt  int64   `json:"lastAt"`
}

type snapshotSeries struct {
	Key    string           `json:"key"`
	Minute []snapshotBucket `json:"minute,omitempty"`
	Hour   []snapshotBucket `json:"hour,omitempty"`
}

type snapshotFile struct {
	V       int              `json:"v"`
	SavedAt time.Time        `json:"savedAt"`
	Series  []snapshotSeries `json:"series"`
}

// dump is what a snapshot keeps of a tier, oldest first: the view, its
// late buffer folded, then the live buckets.
func (r *tier) dump() []snapshotBucket {
	var out []snapshotBucket
	put := func(s *summary) {
		out = append(out, snapshotBucket{
			Idx: s.idx, Count: int(s.count), Sum: s.sum, Min: s.min, Max: s.max,
			FirstAt: s.firstNs, LastAt: s.lastNs,
		})
	}
	r.foldLocked()
	for i := range r.sealed.buckets {
		put(&r.sealed.buckets[i].summary)
	}
	r.walk(r.oldest(), r.latest, func(b *bucket) { put(&b.summary) })
	return out
}

// restoreLocked places saved buckets as their samples would have been: a
// bucket beyond the tier's reach of the newest is dropped, and one
// already present is overwritten. They are taken oldest first (a file
// written from a ring's slot table is not in that order), so that on a
// tier holding nothing newer each arrives as the newest interval and is
// sealed by the next; out of order, every bucket older than the live
// ones is a copy of the view (22 ms for a full minute tier, measured).
// Sketches are not persisted, so restored buckets answer everything but
// quantiles. Caller holds the series mutex.
func (s *series) restoreLocked(tier int, saved []snapshotBucket) {
	r := &s.tiers[tier]
	saved = slices.Clone(saved)
	slices.SortStableFunc(saved, func(a, b snapshotBucket) int { return cmp.Compare(a.Idx, b.Idx) })
	for _, sb := range saved {
		if sb.Count <= 0 {
			continue
		}
		sum := summary{
			idx: sb.Idx, count: int64(sb.Count), sum: sb.Sum, min: sb.Min, max: sb.Max,
			firstNs: sb.FirstAt, lastNs: sb.LastAt,
		}
		if b := r.at(sb.Idx); b != nil {
			b.reset(sb.Idx) // no sketch: the empty bin range
			b.summary = sum
		} else if sb.Idx >= r.oldest() {
			r.foldLocked()
			r.sealed.put(sum)
		}
		// Seed lastWrite so Maintain can age restored-but-idle series out
		// instead of keeping them forever, and earliest so the finer
		// tiers, which never saw this history, do not claim to cover it.
		if at := time.Unix(0, sb.LastAt); at.After(s.lastWrite) {
			s.lastWrite = at
		}
		s.earliest = min(s.earliest, sb.FirstAt/int64(time.Second))
	}
}

// SaveSnapshot writes the minute and hour tiers of every series to
// path as versioned JSON, atomically (temp file + rename), so a
// restarted daemon can answer long-window queries from before the
// restart. The seconds tier and the histogram sketches are deliberately
// not persisted: the former covers minutes and refills immediately, the
// latter would multiply the file size by histSize.
func (st *Store) SaveSnapshot(path string, now time.Time) error {
	snap := snapshotFile{V: snapshotVersion, SavedAt: now}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for key, s := range sh.series {
			s.mu.Lock()
			ss := snapshotSeries{Key: key, Minute: s.tiers[tierMinute].dump(), Hour: s.tiers[tierHour].dump()}
			s.mu.Unlock()
			if len(ss.Minute) == 0 && len(ss.Hour) == 0 {
				continue
			}
			snap.Series = append(snap.Series, ss)
		}
		sh.mu.RUnlock()
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("metrics: encode snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSnapshot merges a SaveSnapshot file into the store, restoring
// each series' minute and hour tiers (creating series as needed; the
// seconds tier starts empty). A missing file is not an error — a first
// boot simply has no history.
func (st *Store) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("metrics: undecodable snapshot %s: %w", path, err)
	}
	if snap.V > snapshotVersion {
		return fmt.Errorf("metrics: snapshot %s version %d newer than supported %d", path, snap.V, snapshotVersion)
	}
	for _, ss := range snap.Series {
		if ss.Key == "" {
			continue
		}
		s := st.lockSeries(ss.Key)
		// The seconds tier is untouched; what the merge may lower,
		// series.earliest, reads judge under the lock.
		s.restoreLocked(tierMinute, ss.Minute)
		s.restoreLocked(tierHour, ss.Hour)
		s.mu.Unlock()
	}
	return nil
}
