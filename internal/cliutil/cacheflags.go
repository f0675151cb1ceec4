package cliutil

import (
	"flag"
	"time"

	"aa/internal/cache"
)

// CacheFlags is the shared flag surface of a solve-result cache.
// AddFlags registers the flags every cache takes (the relay's exact-hit
// cache stops there); AddEngineFlags adds the engine's warm-start bound
// for the binaries that run an engine (aaserve, aareplay):
//
//	-cache        off | memory (shared is another spelling of memory)
//	-cache-size   max entries (default cache.DefaultSize)
//	-cache-ttl    entry time-to-live, 0 = no expiry
//	-cache-key    secret keying fingerprint hashing
//	-cache-warm-k warm-start repair bound, 0 disables warm starts (engine only)
type CacheFlags struct {
	Mode  string
	Size  int
	TTL   time.Duration
	WarmK int
	Key   string
}

// AddFlags registers the cache flags on fs with the shared wording.
func (c *CacheFlags) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Mode, "cache", "off",
		"solve-result cache mode: off or memory (an in-process LRU; shared is the same mode)")
	fs.IntVar(&c.Size, "cache-size", cache.DefaultSize,
		"max cached solve results")
	fs.DurationVar(&c.TTL, "cache-ttl", 0,
		"cached solve result time-to-live; 0 means entries never expire")
	fs.StringVar(&c.Key, "cache-key", "",
		"secret keying fingerprint hashing, so relays sharing it derive the same fingerprints; empty means unkeyed (aarelay: a random per-process key)")
}

// AddEngineFlags registers AddFlags' flags plus -cache-warm-k, which
// only a binary that runs an engine reads (into engine.Options.WarmK).
func (c *CacheFlags) AddEngineFlags(fs *flag.FlagSet) {
	c.AddFlags(fs)
	fs.IntVar(&c.WarmK, "cache-warm-k", 8,
		"warm-start bound: repair from a cached solve differing by at most this many threads; 0 disables warm starts")
}

// Config returns the cache configuration the flags describe.
func (c *CacheFlags) Config() cache.Config {
	return cache.Config{
		Mode: cache.Mode(c.Mode),
		Size: c.Size,
		TTL:  c.TTL,
		Key:  cache.KeyFromString(c.Key),
	}
}

// Build constructs the cache the flags describe. Mode "off" returns the
// no-op cache, which the engine recognizes and leaves uninstalled.
func (c *CacheFlags) Build() (cache.Cache, error) { return cache.New(c.Config()) }
