package ratelimit

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic refill tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBucket(rate, burst float64) (*Bucket, *fakeClock) {
	clk := newFakeClock()
	b := NewBucket(rate, burst)
	b.setNow(clk.Now)
	return b, clk
}

func TestBucketStartsFullAndDrains(t *testing.T) {
	b, _ := newTestBucket(1, 3)
	if got := b.Tokens(); got != 3 {
		t.Fatalf("initial tokens = %v, want 3", got)
	}
	for i := 0; i < 3; i++ {
		ok, wait := b.Take()
		if !ok || wait != 0 {
			t.Fatalf("take %d: ok=%v wait=%v, want granted", i, ok, wait)
		}
	}
	ok, wait := b.Take()
	if ok {
		t.Fatal("take on empty bucket granted")
	}
	if wait <= 0 {
		t.Fatalf("empty-bucket wait = %v, want positive", wait)
	}
	if got := b.Tokens(); got != 0 {
		t.Fatalf("tokens after failed take = %v, want 0 (no charge)", got)
	}
}

// Property: with no intervening Take, the token level is non-decreasing
// as the clock advances by random steps (refill monotonicity), and never
// exceeds the burst ceiling.
func TestBucketRefillMonotonicAndCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rate := 0.1 + rng.Float64()*20
		burst := 1 + rng.Float64()*10
		b, clk := newTestBucket(rate, burst)
		// Drain to a random level first.
		for b.Tokens() >= 1 && rng.Intn(2) == 0 {
			b.Take()
		}
		prev := b.Tokens()
		for step := 0; step < 100; step++ {
			clk.Advance(time.Duration(rng.Int63n(int64(500 * time.Millisecond))))
			cur := b.Tokens()
			if cur < prev-1e-9 {
				t.Fatalf("trial %d step %d: tokens decreased %v -> %v without Take", trial, step, prev, cur)
			}
			if cur > burst+1e-9 {
				t.Fatalf("trial %d step %d: tokens %v exceed burst %v", trial, step, cur, burst)
			}
			prev = cur
		}
	}
}

// Property: Retry-After is honest — after advancing the clock by the
// returned wait, the same Take succeeds.
func TestBucketRetryAfterSufficient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rate := 0.5 + rng.Float64()*10
		burst := 1 + float64(rng.Intn(5))
		b, clk := newTestBucket(rate, burst)
		for {
			if ok, _ := b.Take(); !ok {
				break
			}
		}
		ok, wait := b.Take()
		if ok {
			t.Fatalf("trial %d: expected empty bucket", trial)
		}
		clk.Advance(wait + time.Millisecond)
		if ok, _ := b.Take(); !ok {
			t.Fatalf("trial %d: take still denied after waiting %v", trial, wait)
		}
	}
}

func TestBucketTakeNAllOrNothing(t *testing.T) {
	b, clk := newTestBucket(2, 5)
	ok, _ := b.TakeN(4)
	if !ok {
		t.Fatal("TakeN(4) from full bucket of 5 denied")
	}
	ok, wait := b.TakeN(3)
	if ok {
		t.Fatal("TakeN(3) with 1 token granted")
	}
	if got := b.Tokens(); got != 1 {
		t.Fatalf("failed TakeN charged the bucket: tokens = %v, want 1", got)
	}
	// Deficit is 2 tokens at 2/s => 1s.
	if wait < 900*time.Millisecond || wait > 1100*time.Millisecond {
		t.Fatalf("wait = %v, want ~1s", wait)
	}
	clk.Advance(wait + time.Millisecond)
	if ok, _ := b.TakeN(3); !ok {
		t.Fatal("TakeN(3) denied after refill window")
	}
	// Requests above burst can never succeed but must not wedge.
	ok, wait = b.TakeN(100)
	if ok {
		t.Fatal("TakeN above burst granted")
	}
	if wait <= 0 {
		t.Fatal("TakeN above burst returned non-positive wait")
	}
	if ok, _ := b.TakeN(0); !ok {
		t.Fatal("TakeN(0) should be a free grant")
	}
}

func TestBucketClampsBadConfig(t *testing.T) {
	for _, b := range []*Bucket{
		NewBucket(0, 0),
		NewBucket(-3, -1),
		NewBucket(math.NaN(), math.NaN()),
	} {
		if ok, _ := b.Take(); !ok {
			t.Fatal("clamped bucket should grant its single burst token")
		}
		if ok, _ := b.Take(); ok {
			t.Fatal("clamped bucket should be strict, not unlimited")
		}
	}
}

func TestBucketIgnoresClockRegression(t *testing.T) {
	b, clk := newTestBucket(1, 4)
	b.Take()
	b.Take()
	before := b.Tokens()
	clk.Advance(-time.Hour)
	if got := b.Tokens(); got < before-1e-9 || got > before+1e-9 {
		t.Fatalf("tokens changed across clock regression: %v -> %v", before, got)
	}
	// Clock resumes from the regressed point; refill works again.
	clk.Advance(time.Hour + 2*time.Second)
	if got := b.Tokens(); got < before+2-1e-9 {
		t.Fatalf("tokens = %v, want >= %v after 2s of refill", got, before+2)
	}
}

// Property (race-enabled): under concurrent Take against a live clock,
// tokens never go negative and total grants never exceed
// burst + rate·elapsed — the bucket cannot be over-granted by racing.
func TestBucketConcurrentTakeInvariants(t *testing.T) {
	const (
		rate  = 50.0
		burst = 10.0
		gor   = 8
		tries = 200
	)
	b := NewBucket(rate, burst)
	start := time.Now()
	var granted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				ok, _ := b.Take()
				if ok {
					mu.Lock()
					granted++
					mu.Unlock()
				}
				if tok := b.Tokens(); tok < 0 {
					t.Errorf("negative tokens: %v", tok)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	// Generous slack: one extra second of refill covers scheduling skew.
	ceiling := burst + rate*(elapsed+1)
	if float64(granted) > ceiling {
		t.Fatalf("granted %d tokens in %.3fs, ceiling %.1f", granted, elapsed, ceiling)
	}
	if tok := b.Tokens(); tok < 0 || tok > burst {
		t.Fatalf("final tokens %v outside [0, %v]", tok, burst)
	}
}

func TestLimiterPerClientIsolation(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 2)
	l.now = clk.Now
	for i := 0; i < 2; i++ {
		if ok, _ := l.Take("alice"); !ok {
			t.Fatalf("alice take %d denied", i)
		}
	}
	if ok, wait := l.Take("alice"); ok || wait <= 0 {
		t.Fatalf("alice over-burst: ok=%v wait=%v", ok, wait)
	}
	// A different client has its own untouched bucket.
	if ok, _ := l.Take("bob"); !ok {
		t.Fatal("bob's first take denied by alice's exhaustion")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	// After refill, alice is admitted again.
	clk.Advance(1100 * time.Millisecond)
	if ok, _ := l.Take("alice"); !ok {
		t.Fatal("alice denied after refill window")
	}
}

func TestLimiterSweepBoundsClients(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(100, 2)
	l.maxClients = 8
	l.now = clk.Now
	for i := 0; i < 100; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if ok, _ := l.Take(key); !ok {
			t.Fatalf("take for %q denied", key)
		}
		clk.Advance(50 * time.Millisecond) // all prior buckets refill to full
	}
	if l.Len() > 8+1 {
		t.Fatalf("Len = %d, want <= maxClients+1", l.Len())
	}
}

func TestLimiterSweepEvictsLRUWhenNoneFull(t *testing.T) {
	clk := newFakeClock()
	// Rate so slow nothing refills during the test: sweep must fall back
	// to LRU eviction instead of finding full buckets.
	l := NewLimiter(0.001, 1)
	l.maxClients = 3
	l.now = clk.Now
	keys := []string{"k1", "k2", "k3", "k4"}
	for _, k := range keys {
		l.Take(k) // drains each bucket to 0
		clk.Advance(time.Millisecond)
	}
	if l.Len() > 3 {
		t.Fatalf("Len = %d, want <= 3 after LRU sweep", l.Len())
	}
}

func TestLimiterConcurrentTake(t *testing.T) {
	l := NewLimiter(1000, 50)
	l.maxClients = 16
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d", "e"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Take(keys[(g+i)%len(keys)])
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 16 {
		t.Fatalf("Len = %d, want <= 16", l.Len())
	}
}
