// Package cache is the solve-result cache behind the engine's caching
// middleware: fingerprint-keyed storage of verified solver responses,
// plus the canonical-form machinery (CanonicalizeKeyed / Diff) the engine's
// warm-start repair path uses to recognize instances that differ from a
// cached one by only a few threads.
//
// The cache stores entries in canonical (hash-sorted) thread order, so a
// request whose threads are a permutation of a cached instance's still
// gets an exact hit, un-permuted back through its own Perm — with the
// assignment byte-identical to the one the populating solve produced.
// Entries are immutable once stored: Put hands ownership of the entry
// and its slices to the cache, and Get returns shared pointers that
// callers must not mutate.
//
// Two modes hide behind one factory (New): ModeOff (a no-op cache) and
// ModeMemory (an in-process sharded LRU with size and TTL bounds;
// ModeShared is another spelling of it). Config.Key keys the thread
// hashing; the relay tier always sets one, so its fingerprints are
// safe to derive from untrusted request bodies.
package cache

import (
	"fmt"
	"time"
)

// Mode selects a cache implementation in Config.
type Mode string

// The cache modes accepted by New (and the -cache CLI flag).
const (
	// ModeOff disables caching: every lookup misses, stores are dropped.
	ModeOff Mode = "off"
	// ModeMemory is the in-process sharded LRU with size and TTL bounds.
	ModeMemory Mode = "memory"
	// ModeShared is another spelling of ModeMemory, kept for the
	// configurations that name the relay's cache "shared".
	ModeShared Mode = "shared"
)

// Config configures a cache built by New. The zero value is a usable
// ModeOff configuration.
type Config struct {
	// Mode selects the implementation; "" means ModeOff.
	Mode Mode
	// Size bounds the number of entries (memory mode); <= 0 means
	// DefaultSize. The bound is enforced per shard, so the effective
	// capacity is Size rounded up to a multiple of the shard count.
	Size int
	// TTL bounds entry age; entries older than TTL are evicted lazily on
	// access. 0 means no expiry (required for deterministic replay
	// reports — see internal/replay).
	TTL time.Duration
	// Key keys the thread-hash mixer (CanonicalizeKeyed). The zero key
	// means unkeyed hashing (byte-compatible with pre-keying
	// fingerprints). Derive one from a shared secret with KeyFromString,
	// or draw a per-process one with RandomKey; a cache whose keys come
	// from untrusted bodies must be keyed, or the published unkeyed
	// constants are a collision target.
	Key HashKey
}

// DefaultSize is the entry bound of a Config that leaves Size at zero.
const DefaultSize = 1024

// The memory cache's fixed shape: the number of independently locked
// LRU shards, and the length of the per-(m, C, backend) recency ring
// the warm-start path consults.
const (
	shardCount = 8
	ringSize   = 8
)

// Stats is a point-in-time snapshot of one cache's counters. The same
// events also feed the process-wide aa_cache_* telemetry counters;
// Stats exists so a single cache (a replay run, a test) can be read in
// isolation from every other cache in the process.
type Stats struct {
	// Hits and Misses count Get outcomes (a warm start is also a miss:
	// the exact key was absent and a nearby entry was repaired instead).
	Hits, Misses uint64
	// WarmStarts counts misses the engine repaired from a near-miss
	// candidate instead of solving cold (NoteWarmStart).
	WarmStarts uint64
	// Evictions counts entries dropped for capacity or TTL.
	Evictions uint64
	// Stores counts successful Puts.
	Stores uint64
	// Bypasses counts requests that skipped the cache (NoteBypass —
	// Request.NoCache / ?cache=bypass).
	Bypasses uint64
}

// Cache is the interface the engine middleware drives. Implementations
// are safe for concurrent use.
type Cache interface {
	// Mode reports the mode this cache was built with.
	Mode() Mode
	// Get returns the entry stored under key, counting a hit or miss.
	// The returned entry is shared and must not be mutated.
	Get(key Key) (*Entry, bool)
	// Put stores e under key and registers the key in group's recency
	// ring for warm-start candidate lookup. The cache takes ownership of
	// e and its slices.
	Put(key Key, group uint64, e *Entry)
	// Candidates appends the live entries of group's recency ring to
	// dst, most recently stored first, without disturbing LRU order or
	// hit/miss accounting.
	Candidates(group uint64, dst []*Entry) []*Entry
	// Remove drops the entry stored under key, if any. Benchmarks use it
	// to force the warm path on every iteration.
	Remove(key Key)
	// Len returns the number of live entries.
	Len() int
	// Stats returns a snapshot of this cache's counters.
	Stats() Stats
	// NoteWarmStart counts one warm-start repair (called by the engine
	// middleware, which is the only place that can tell a warm start
	// from a plain miss).
	NoteWarmStart()
	// NoteBypass counts one explicitly bypassed request.
	NoteBypass()
	// HashKey returns the key requests against this cache must
	// canonicalize with (CanonicalizeKeyed); the zero key means the
	// unkeyed hash. Mixing keys against one cache silently misses on
	// everything, so every reader and writer must go through this.
	HashKey() HashKey
}

// Entry is one cached solve result, stored in canonical thread order
// (position k holds the thread Canon.Hashes[k] describes). Canon keeps
// the canonical form of the populating instance so the warm-start path
// can diff new instances against it without re-deriving anything.
type Entry struct {
	// Canon is the canonical form of the instance that produced this
	// entry. Its Perm is meaningless here (it related the populating
	// request's thread order, which is gone); only M, C and Hashes are
	// read back.
	Canon *Canonical
	// Server and Alloc are the assignment in canonical thread order.
	Server []int
	Alloc  []float64
	// Utility is the populating response's total utility (NaN when the
	// populating request did not ask for it).
	Utility float64
	// Bound is the super-optimal bound F̂ the populating solve computed
	// (NaN for backends that do not produce one).
	Bound float64
	// Lambda is the water-filling price of the populating solve's
	// λ-search; > 0 is the precondition for warm-starting from this
	// entry.
	Lambda float64
	// CHat is the populating solve's super-optimal allocation ĉ in
	// canonical thread order (nil for backends that do not produce one).
	// A warm start's first λ probe, at Lambda, takes the shared threads'
	// amounts from it instead of evaluating them.
	CHat []float64
	// Backend is the canonical backend name that produced the entry.
	Backend string
}

// New builds a cache for cfg. ModeOff (and the zero Config) return the
// shared no-op cache; unknown modes are an error.
func New(cfg Config) (Cache, error) {
	switch cfg.Mode {
	case "", ModeOff:
		return Noop(), nil
	case ModeMemory, ModeShared:
		return newMemCache(cfg, shardCount), nil
	default:
		return nil, fmt.Errorf("cache: unknown mode %q (want %q, %q or %q)",
			cfg.Mode, ModeOff, ModeMemory, ModeShared)
	}
}
