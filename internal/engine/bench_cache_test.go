package engine

// Cache-path benchmarks at the ISSUE's headline operating point:
// n = 10⁴ threads, k = 8 changed. Three rungs of the same solve —
// cold Assign2 through the pipeline, warm-start repair from a cached
// neighbor, and an exact cache hit — measured in one snapshot so
// benchgate can assert the warm-start ≥ 2× and exact-hit speedup
// floors without machine calibration.

import (
	"context"
	"testing"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
)

// benchCachePair returns a 10⁴-thread instance plus the same instance
// with its last 8 threads swapped for in-distribution replacements —
// the near-miss pair the warm-start path repairs.
func benchCachePair(b *testing.B) (base, churned *core.Instance) {
	b.Helper()
	r := rng.New(99)
	in, err := gen.Instance(gen.DefaultUniform, 8, 1000, 10000, r.Split(0))
	if err != nil {
		b.Fatal(err)
	}
	donor, err := gen.Instance(gen.DefaultUniform, 8, 1000, 10000, r.Split(1))
	if err != nil {
		b.Fatal(err)
	}
	ch := &core.Instance{M: in.M, C: in.C, Threads: append(in.Threads[:0:0], in.Threads...)}
	for i := 0; i < 8; i++ {
		ch.Threads[len(ch.Threads)-1-i] = donor.Threads[i]
	}
	return in, ch
}

func benchCacheKey(b *testing.B, in *core.Instance) cache.Key {
	b.Helper()
	canon, err := cache.CanonicalizeKeyed(in, cache.HashKey{})
	if err != nil {
		b.Fatal(err)
	}
	return cache.RequestKey(canon.Fingerprint(), cache.Params{Backend: "assign2"})
}

func newBenchCache(b *testing.B) cache.Cache {
	b.Helper()
	c, err := cache.New(cache.Config{Mode: cache.ModeMemory, Size: 64})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkCacheColdSolve(b *testing.B) {
	b.Run("n=10000", func(b *testing.B) {
		_, churned := benchCachePair(b)
		eng := New(Options{})
		defer eng.Close()
		ctx := context.Background()
		var resp Response
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.SolveInto(ctx, &Request{Instance: churned}, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCacheWarmStart(b *testing.B) {
	b.Run("n=10000", func(b *testing.B) {
		base, churned := benchCachePair(b)
		c := newBenchCache(b)
		eng := New(Options{Cache: c, WarmK: 8})
		defer eng.Close()
		ctx := context.Background()
		var resp Response
		if err := eng.SolveInto(ctx, &Request{Instance: base}, &resp); err != nil {
			b.Fatal(err)
		}
		churnedKey := benchCacheKey(b, churned)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Drop the exact entry so every iteration takes the warm
			// repair path, never the exact hit.
			c.Remove(churnedKey)
			if err := eng.SolveInto(ctx, &Request{Instance: churned}, &resp); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.WarmStarts != uint64(b.N) {
			b.Fatalf("warm-started %d of %d solves (stats %+v)", st.WarmStarts, b.N, st)
		}
	})
}

func BenchmarkCacheExactHit(b *testing.B) {
	b.Run("n=10000", func(b *testing.B) {
		_, churned := benchCachePair(b)
		c := newBenchCache(b)
		eng := New(Options{Cache: c, WarmK: 8})
		defer eng.Close()
		ctx := context.Background()
		var resp Response
		if err := eng.SolveInto(ctx, &Request{Instance: churned}, &resp); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.SolveInto(ctx, &Request{Instance: churned}, &resp); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.Hits != uint64(b.N) {
			b.Fatalf("hit on %d of %d solves (stats %+v)", st.Hits, b.N, st)
		}
	})
}
