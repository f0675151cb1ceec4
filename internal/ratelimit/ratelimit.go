// Package ratelimit is the relay tier's admission-control primitive: a
// classic token bucket plus a keyed per-client limiter built on it.
//
// A Bucket holds up to Burst tokens and refills continuously at Rate
// tokens per second. Take removes one token if available; otherwise it
// reports how long the caller must wait before the same Take could
// succeed — the number an HTTP front end turns into a Retry-After
// header. The refill is computed lazily from the elapsed time on each
// operation, so an idle bucket costs nothing.
//
// Invariants (pinned by the property tests in this package):
//
//   - tokens never go negative, even under concurrent Take,
//   - tokens never exceed Burst (the burst ceiling),
//   - with no intervening Take, the token level is non-decreasing in
//     time (refill monotonicity).
//
// A Limiter maintains one bucket per client key (the relay keys on the
// client IP) with bounded memory: idle buckets are swept once the
// client map grows past its cap, full buckets being dropped first —
// dropping a full bucket is lossless, since a fresh bucket starts full.
package ratelimit

import (
	"math"
	"sync"
	"time"
)

// Bucket is a token bucket: capacity Burst, continuous refill at Rate
// tokens per second. Safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // capacity; also the initial level
	tokens float64
	last   time.Time

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewBucket returns a full bucket refilling at rate tokens/second with
// capacity burst. rate and burst must be positive; non-positive values
// are clamped to a minimal working bucket (1 token/s, burst 1) so a
// misconfigured limiter degrades to "very strict", never to a panic or
// an unlimited pass.
func NewBucket(rate, burst float64) *Bucket {
	if rate <= 0 || math.IsNaN(rate) {
		rate = 1
	}
	if burst <= 0 || math.IsNaN(burst) {
		burst = 1
	}
	b := &Bucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
	b.last = b.now()
	return b
}

// refill advances the token level to the current instant. Caller holds
// b.mu. A non-monotonic clock step (t before b.last) is ignored rather
// than refunded or charged.
func (b *Bucket) refill() {
	t := b.now()
	if dt := t.Sub(b.last); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*dt.Seconds())
	}
	b.last = t
}

// Take removes one token. When the bucket is empty it leaves the level
// untouched and returns false with the duration after which one token
// will have refilled — the Retry-After hint. A successful Take returns
// (true, 0).
func (b *Bucket) Take() (bool, time.Duration) { return b.TakeN(1) }

// TakeN removes n tokens atomically (all or nothing). n larger than the
// burst capacity can never succeed; the returned wait is then the time
// to refill the full deficit, which at least tells the caller how far
// out of range the request was.
func (b *Bucket) TakeN(n float64) (bool, time.Duration) {
	if n <= 0 || math.IsNaN(n) {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	deficit := n - b.tokens
	wait := time.Duration(deficit / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return false, wait
}

// Tokens reports the current level after refill. Tests use it to pin
// the bucket invariants; the relay's /nodes status surfaces it.
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	return b.tokens
}

// setNow installs a fake clock (tests only) and resets the refill
// anchor so the first interval is measured on the new clock.
func (b *Bucket) setNow(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	b.last = now()
}

// clientLimit bounds a Limiter's client map.
const clientLimit = 4096

// Limiter hands out one Bucket per client key. Safe for concurrent use.
type Limiter struct {
	rate, burst float64
	// maxClients is clientLimit; tests shrink it.
	maxClients int

	mu      sync.Mutex
	clients map[string]*clientBucket

	// now is the clock used for sweep decisions and new buckets.
	now func() time.Time
}

// clientBucket pairs a bucket with its last-use instant for sweeping.
type clientBucket struct {
	b        *Bucket
	lastUsed time.Time
}

// NewLimiter builds a per-client limiter: every distinct key gets a
// bucket of the given rate and burst. clientLimit bounds the client
// map; when the map is full, idle-and-full buckets are swept, and as a
// last resort the least recently used client is evicted —
// indistinguishable from its bucket having refilled, except for
// clients holding a drained bucket, who get a fresh burst early. That bias is the price of bounded memory and is
// acceptable for admission control (it never blocks a well-behaved
// client).
func NewLimiter(rate, burst float64) *Limiter {
	return &Limiter{
		rate: rate, burst: burst, maxClients: clientLimit,
		clients: make(map[string]*clientBucket),
		now:     time.Now,
	}
}

// Take removes one token from key's bucket, creating it on first use.
// The false return carries the Retry-After hint, exactly like
// Bucket.Take.
func (l *Limiter) Take(key string) (bool, time.Duration) {
	l.mu.Lock()
	cb, ok := l.clients[key]
	if !ok {
		if len(l.clients) >= l.maxClients {
			l.sweepLocked()
		}
		b := NewBucket(l.rate, l.burst)
		b.setNow(l.now)
		cb = &clientBucket{b: b}
		l.clients[key] = cb
	}
	cb.lastUsed = l.now()
	l.mu.Unlock()
	return cb.b.Take()
}

// Len reports the number of tracked clients.
func (l *Limiter) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.clients)
}

// sweepLocked frees map slots: first every bucket that has refilled to
// capacity (dropping those is lossless — a fresh bucket starts full),
// then, if nothing qualified, the least recently used client. Caller
// holds l.mu.
func (l *Limiter) sweepLocked() {
	var (
		lruKey  string
		lruTime time.Time
		dropped bool
	)
	for key, cb := range l.clients {
		if cb.b.Tokens() >= l.burst || (l.burst <= 0 && cb.b.Tokens() >= 1) {
			delete(l.clients, key)
			dropped = true
			continue
		}
		if lruKey == "" || cb.lastUsed.Before(lruTime) {
			lruKey, lruTime = key, cb.lastUsed
		}
	}
	if !dropped && lruKey != "" {
		delete(l.clients, lruKey)
	}
}
