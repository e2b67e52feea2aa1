package tenancy

import (
	"math"
	"sync"
	"time"
)

// Limiter is a per-tenant token bucket: every tenant gets its own
// bucket of Burst tokens refilled at Rate tokens per second, so one
// tenant's ingestion storm throttles that tenant alone. The limiter
// also keeps per-tenant admission counters for the ops surfaces
// (/healthz, /v1/admin/tenants).
type Limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens    float64
	last      time.Time
	requests  uint64
	throttled uint64
}

// NewLimiter creates a Limiter. rate <= 0 disables limiting (Allow
// always admits but still counts requests); burst <= 0 defaults to
// max(1, rate).
func NewLimiter(rate float64, burst int) *Limiter {
	b := float64(burst)
	if b <= 0 {
		b = math.Max(1, rate)
	}
	return &Limiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// Allow admits or throttles one request for tenant at time now. When
// throttled, retryAfter is how long until a token is available — the
// Retry-After header the middleware sends with the 429.
func (l *Limiter) Allow(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bk := l.buckets[tenant]
	if bk == nil {
		bk = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = bk
	}
	if elapsed := now.Sub(bk.last).Seconds(); elapsed > 0 {
		bk.tokens = math.Min(l.burst, bk.tokens+elapsed*l.rate)
		bk.last = now
	}
	bk.requests++
	if l.rate <= 0 {
		return true, 0
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true, 0
	}
	bk.throttled++
	need := 1 - bk.tokens
	return false, time.Duration(need / l.rate * float64(time.Second))
}

// Usage is one tenant's admission counters.
type Usage struct {
	Requests  uint64 `json:"requests"`
	Throttled uint64 `json:"throttled"`
}

// Stats returns per-tenant admission counters, keyed by canonical
// tenant, in sorted key order when ranged via the returned keys.
func (l *Limiter) Stats() map[string]Usage {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Usage, len(l.buckets))
	for t, bk := range l.buckets {
		out[t] = Usage{Requests: bk.requests, Throttled: bk.throttled}
	}
	return out
}
