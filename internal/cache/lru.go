package cache

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"aa/internal/telemetry"
)

// Process-wide cache telemetry (aa_cache_*), aggregated across every
// cache in the process; per-cache numbers come from Stats. Registered
// eagerly so /metrics shows them at zero before the first solve.
var (
	metricHits       = telemetry.Default.Counter("aa_cache_hits_total")
	metricMisses     = telemetry.Default.Counter("aa_cache_misses_total")
	metricWarmStarts = telemetry.Default.Counter("aa_cache_warm_starts_total")
	metricEvictions  = telemetry.Default.Counter("aa_cache_evictions_total")
	metricStores     = telemetry.Default.Counter("aa_cache_stores_total")
	metricBypasses   = telemetry.Default.Counter("aa_cache_bypasses_total")
)

// counters backs Stats with per-cache atomics.
type counters struct {
	hits, misses, warm, evictions, stores, bypasses atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		WarmStarts: c.warm.Load(),
		Evictions:  c.evictions.Load(),
		Stores:     c.stores.Load(),
		Bypasses:   c.bypasses.Load(),
	}
}

// memCache is the in-process implementation behind ModeMemory: an LRU
// split across independently locked shards, with lazy TTL expiry and a
// per-group recency ring feeding the warm-start candidate lookup.
type memCache struct {
	mode   Mode
	key    HashKey
	shards []*shard
	ttl    time.Duration
	stats  counters

	// now is the clock, swappable in tests to drive TTL expiry.
	now func() time.Time

	groupMu sync.Mutex
	groups  map[uint64][]Key
	// groupSize bounds each recency ring: ringSize, which tests shrink.
	groupSize int
}

// shard is one lock domain: a map into an LRU list, newest at the front.
type shard struct {
	mu  sync.Mutex
	max int
	m   map[Key]*list.Element
	ll  *list.List
}

// lruItem is one list element's payload.
type lruItem struct {
	key    Key
	e      *Entry
	stored time.Time
}

// newMemCache builds a memory cache of nshards shards (New passes
// shardCount; tests pass their own).
func newMemCache(cfg Config, nshards int) *memCache {
	size := cfg.Size
	if size <= 0 {
		size = DefaultSize
	}
	if nshards > size {
		nshards = size // tiny caches: never let per-shard capacity round to 0
	}
	perShard := (size + nshards - 1) / nshards
	c := &memCache{
		mode:      cfg.Mode,
		key:       cfg.Key,
		shards:    make([]*shard, nshards),
		ttl:       cfg.TTL,
		now:       time.Now,
		groups:    make(map[uint64][]Key),
		groupSize: ringSize,
	}
	for i := range c.shards {
		c.shards[i] = &shard{max: perShard, m: make(map[Key]*list.Element), ll: list.New()}
	}
	return c
}

func (c *memCache) Mode() Mode { return c.mode }

func (c *memCache) HashKey() HashKey { return c.key }

func (c *memCache) shard(key Key) *shard {
	return c.shards[binary.LittleEndian.Uint64(key[:8])%uint64(len(c.shards))]
}

// expired reports whether it is past its TTL; ttl = 0 never expires.
func (c *memCache) expired(it *lruItem) bool {
	return c.ttl > 0 && c.now().Sub(it.stored) > c.ttl
}

func (c *memCache) Get(key Key) (*Entry, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		it := el.Value.(*lruItem)
		if c.expired(it) {
			sh.ll.Remove(el)
			delete(sh.m, key)
			sh.mu.Unlock()
			c.stats.evictions.Add(1)
			metricEvictions.Inc()
		} else {
			sh.ll.MoveToFront(el)
			e := it.e
			sh.mu.Unlock()
			c.stats.hits.Add(1)
			metricHits.Inc()
			return e, true
		}
	} else {
		sh.mu.Unlock()
	}
	c.stats.misses.Add(1)
	metricMisses.Inc()
	return nil, false
}

// peek is Get without LRU promotion, expiry, or hit/miss accounting —
// the candidate path must not distort the stats it is reported next to.
func (c *memCache) peek(key Key) (*Entry, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		return nil, false
	}
	it := el.Value.(*lruItem)
	if c.expired(it) {
		return nil, false
	}
	return it.e, true
}

func (c *memCache) Put(key Key, group uint64, e *Entry) {
	now := c.now()
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		it := el.Value.(*lruItem)
		it.e = e
		it.stored = now
		sh.ll.MoveToFront(el)
	} else {
		sh.m[key] = sh.ll.PushFront(&lruItem{key: key, e: e, stored: now})
		for len(sh.m) > sh.max {
			back := sh.ll.Back()
			it := back.Value.(*lruItem)
			sh.ll.Remove(back)
			delete(sh.m, it.key)
			c.stats.evictions.Add(1)
			metricEvictions.Inc()
		}
	}
	sh.mu.Unlock()
	c.stats.stores.Add(1)
	metricStores.Inc()

	c.groupMu.Lock()
	ring := c.groups[group]
	for i, k := range ring {
		if k == key {
			ring = append(ring[:i], ring[i+1:]...)
			break
		}
	}
	ring = append(ring, Key{})
	copy(ring[1:], ring)
	ring[0] = key
	if len(ring) > c.groupSize {
		ring = ring[:c.groupSize]
	}
	c.groups[group] = ring
	c.groupMu.Unlock()
}

func (c *memCache) Candidates(group uint64, dst []*Entry) []*Entry {
	c.groupMu.Lock()
	keys := append(make([]Key, 0, len(c.groups[group])), c.groups[group]...)
	c.groupMu.Unlock()
	// Keys whose entries were evicted since they entered the ring are
	// skipped; the ring is bounded (groupSize) so the dangling remainder
	// is harmless and ages out as newer stores displace it.
	for _, k := range keys {
		if e, ok := c.peek(k); ok {
			dst = append(dst, e)
		}
	}
	return dst
}

func (c *memCache) Remove(key Key) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		sh.ll.Remove(el)
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

func (c *memCache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

func (c *memCache) Stats() Stats { return c.stats.snapshot() }

func (c *memCache) NoteWarmStart() {
	c.stats.warm.Add(1)
	metricWarmStarts.Inc()
}

func (c *memCache) NoteBypass() {
	c.stats.bypasses.Add(1)
	metricBypasses.Inc()
}
