package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// key derives a distinct synthetic key. Real keys are SHA-256 outputs;
// these only need to be distinct and non-zero.
func key(i int) Key {
	var k Key
	copy(k[:], fmt.Sprintf("key-%08d", i))
	return k
}

func entry(i int) *Entry {
	return &Entry{Server: []int{i}, Alloc: []float64{float64(i)}, Backend: "assign2"}
}

func TestFactory(t *testing.T) {
	for _, mode := range []Mode{"", ModeOff} {
		c, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatalf("New(%q): %v", mode, err)
		}
		if c.Mode() != ModeOff {
			t.Fatalf("New(%q).Mode() = %q, want off", mode, c.Mode())
		}
	}
	for _, mode := range []Mode{ModeMemory, ModeShared} {
		c, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatalf("New(%q): %v", mode, err)
		}
		if c.Mode() != mode {
			t.Fatalf("New(%q).Mode() = %q", mode, c.Mode())
		}
	}
	if _, err := New(Config{Mode: "redis"}); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestNoop(t *testing.T) {
	c := Noop()
	c.Put(key(1), 7, entry(1))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("noop cache returned a hit")
	}
	if got := c.Candidates(7, nil); len(got) != 0 {
		t.Fatalf("noop candidates: %d", len(got))
	}
	c.NoteWarmStart()
	c.NoteBypass()
	c.Remove(key(1))
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatalf("noop cache has state: len %d stats %+v", c.Len(), c.Stats())
	}
}

func TestMemCacheHitMissStats(t *testing.T) {
	c, _ := New(Config{Mode: ModeMemory, Size: 8})
	k, g := key(1), uint64(7)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, g, entry(1))
	e, ok := c.Get(k)
	if !ok || e.Server[0] != 1 {
		t.Fatalf("expected entry 1, got %v %v", e, ok)
	}
	c.NoteWarmStart()
	c.NoteBypass()
	st := c.Stats()
	want := Stats{Hits: 1, Misses: 1, WarmStarts: 1, Stores: 1, Bypasses: 1}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

func TestMemCacheUpdateExistingKey(t *testing.T) {
	c, _ := New(Config{Mode: ModeMemory, Size: 8})
	k := key(1)
	c.Put(k, 0, entry(1))
	c.Put(k, 0, entry(2))
	if c.Len() != 1 {
		t.Fatalf("len %d after double put, want 1", c.Len())
	}
	e, _ := c.Get(k)
	if e.Server[0] != 2 {
		t.Fatalf("got entry %d, want the updated 2", e.Server[0])
	}
}

func TestMemCacheLRUEviction(t *testing.T) {
	// One shard, capacity 3: inserting a 4th evicts the least recently
	// used, and a Get refreshes recency.
	c := newMemCache(Config{Mode: ModeMemory, Size: 3}, 1)
	for i := 1; i <= 3; i++ {
		c.Put(key(i), 0, entry(i))
	}
	c.Get(key(1)) // 1 is now most recent; 2 is LRU
	c.Put(key(4), 0, entry(4))
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d evicted, want only 2 gone", i)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
}

func TestMemCacheTTL(t *testing.T) {
	c, _ := New(Config{Mode: ModeMemory, Size: 8, TTL: time.Minute})
	mc := c.(*memCache)
	now := time.Unix(1000, 0)
	mc.now = func() time.Time { return now }

	k, g := key(1), uint64(3)
	c.Put(k, g, entry(1))
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry served")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions %d, want 1 (TTL)", ev)
	}
	if got := c.Candidates(g, nil); len(got) != 0 {
		t.Fatalf("candidates served %d expired entries", len(got))
	}

	// TTL = 0 never expires.
	c2, _ := New(Config{Mode: ModeMemory, Size: 8})
	mc2 := c2.(*memCache)
	mc2.now = func() time.Time { return now }
	c2.Put(k, g, entry(1))
	now = now.Add(1000 * time.Hour)
	if _, ok := c2.Get(k); !ok {
		t.Fatal("TTL=0 entry expired")
	}
}

func TestMemCacheRemove(t *testing.T) {
	c, _ := New(Config{Mode: ModeMemory, Size: 8})
	k := key(1)
	c.Put(k, 0, entry(1))
	c.Remove(k)
	c.Remove(key(2)) // absent: no-op
	if _, ok := c.Get(k); ok {
		t.Fatal("removed entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("len %d after remove, want 0", c.Len())
	}
}

func TestCandidatesRecencyRing(t *testing.T) {
	c := newMemCache(Config{Mode: ModeMemory, Size: 64}, shardCount)
	c.groupSize = 3
	g := uint64(9)
	for i := 1; i <= 5; i++ {
		c.Put(key(i), g, entry(i))
	}
	got := c.Candidates(g, nil)
	if len(got) != 3 {
		t.Fatalf("ring served %d candidates, want 3 (the bound)", len(got))
	}
	for i, want := range []int{5, 4, 3} {
		if got[i].Server[0] != want {
			t.Fatalf("candidate %d is entry %d, want %d (most recent first)", i, got[i].Server[0], want)
		}
	}

	// Re-putting an older key moves it to the front without duplicating.
	c.Put(key(4), g, entry(4))
	got = c.Candidates(g, nil)
	if len(got) != 3 || got[0].Server[0] != 4 || got[1].Server[0] != 5 {
		t.Fatalf("after re-put: %v", serversOf(got))
	}

	// Evicted entries are skipped, not served stale.
	c.Remove(key(4))
	got = c.Candidates(g, nil)
	if len(got) != 2 || got[0].Server[0] != 5 || got[1].Server[0] != 3 {
		t.Fatalf("after remove: %v", serversOf(got))
	}

	// Groups are independent.
	if extra := c.Candidates(g+1, nil); len(extra) != 0 {
		t.Fatalf("foreign group served %d candidates", len(extra))
	}

	// dst is appended to, not replaced.
	pre := []*Entry{entry(0)}
	got = c.Candidates(g, pre)
	if len(got) != 3 || got[0].Server[0] != 0 {
		t.Fatalf("append semantics broken: %v", serversOf(got))
	}
}

func serversOf(es []*Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.Server[0]
	}
	return out
}

func TestMemCacheShardClamp(t *testing.T) {
	// More shards (shardCount) than capacity must not round per-shard
	// capacity to 0.
	c, _ := New(Config{Mode: ModeMemory, Size: 2})
	for i := 0; i < 10; i++ {
		c.Put(key(i), 0, entry(i))
	}
	if c.Len() == 0 {
		t.Fatal("tiny cache holds nothing")
	}
	if c.Len() > 2 {
		t.Fatalf("len %d exceeds size bound 2", c.Len())
	}
}

func TestMemCacheConcurrent(t *testing.T) {
	// Race-detector smoke over all entry points.
	c, _ := New(Config{Mode: ModeMemory, Size: 32, TTL: time.Hour})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 40)
				switch i % 5 {
				case 0:
					c.Put(k, uint64(i%3), entry(i))
				case 1:
					c.Get(k)
				case 2:
					c.Candidates(uint64(i%3), nil)
				case 3:
					c.Remove(k)
				default:
					c.Len()
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}
