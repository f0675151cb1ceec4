package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"aa/internal/check"
)

// fingerprintVersion is hashed into every fingerprint so a change to the
// canonicalization scheme (thread encoding, hash layout) invalidates old
// entries instead of silently colliding with them.
const (
	fingerprintVersion      = 2 // v2: binary thread encoding + two-lane 128-bit mixer
	fingerprintVersionKeyed = 3 // v3: v2 with key-perturbed mixer seeds (CanonicalizeKeyed)
	fingerprintVersionWire  = 4 // v4: keyed mixer over each thread's wire bytes (CanonicalizeWire)
)

// Fingerprint identifies a canonical instance: SHA-256 over the scheme
// version, server count, capacity, the feasibility ε baked into the
// check harness, and the sorted per-thread hashes.
type Fingerprint [sha256.Size]byte

// String returns the full lowercase hex form.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Key identifies one cacheable request: a Fingerprint combined with the
// request parameters that change a backend's output (RequestKey).
type Key [sha256.Size]byte

// String returns the full lowercase hex form.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ThreadHash is the canonical per-thread identity: a 128-bit hash of
// the thread's stable binary encoding (instio.AppendThreadBinary),
// stored big-endian so lexicographic byte order equals numeric order of
// the (hi, lo) lanes. The hash is a fast two-lane multiply-xor mixer,
// not a cryptographic digest: fingerprinting must cost far less than
// the solve it short-circuits (SHA-256 per thread was ~50× an Assign2
// solve at n=10⁴), 128 well-mixed bits keep the accidental birthday
// bound far below any realistic corpus, and adversarially engineered
// collisions are outside the threat model of an in-process cache. The
// shared relay tier, where keys do cross trust boundaries, uses the
// keyed variant (CanonicalizeKeyed / hash128Keyed — see DESIGN.md §15).
type ThreadHash [16]byte

// mix64 is the SplitMix64 finalizer — a full-avalanche 64-bit permutation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hash128Keyed digests b into two 64-bit lanes. The absorb round is one
// rotate-multiply per lane per word — canonicalization hashes every
// thread on every cache lookup, so the round must stay a handful of
// cycles — with full mix64 avalanche deferred to the finalizer. The
// tail is zero-padded and the exact length folded in at the end, so a
// short encoding cannot alias a zero-extended one. A collision requires
// both independently-keyed lanes to collide on the same input pair.
//
// The key perturbs both lane seeds and both finalizer foldings through
// mix64, so every key selects an unrelated hash family. mix64(0) == 0
// makes the zero key the identity perturbation: hash128Keyed(b, &zero)
// is exactly the historical unkeyed hash, pinned by golden tests so
// ModeMemory fingerprints survive across releases.
func hash128Keyed(b []byte, k *HashKey) (hi, lo uint64) {
	const (
		golden = 0x9E3779B97F4A7C15
		prime2 = 0xC2B2AE3D27D4EB4F
	)
	h1 := uint64(0x8A5CD789635D2DFF) ^ mix64(k[0])
	h2 := uint64(0x121FD2155C472F96) + mix64(k[1])
	n := uint64(len(b))
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		h1 = (h1 ^ w) * golden
		h1 = h1<<29 | h1>>35
		h2 = (h2 + w) * prime2
		h2 = h2<<33 | h2>>31
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		w := binary.LittleEndian.Uint64(tail[:])
		h1 = (h1 ^ w) * golden
		h1 = h1<<29 | h1>>35
		h2 = (h2 + w) * prime2
		h2 = h2<<33 | h2>>31
	}
	h1 = mix64(h1 ^ n ^ mix64(k[2]))
	h2 = mix64(h2 + n*golden + mix64(k[3]))
	return mix64(h1 + h2), mix64(h1 ^ (h2<<1 | h2>>63))
}

// threadKey is a thread hash paired with its original index, the unit
// the canonical sort orders.
type threadKey struct {
	hi, lo uint64
	idx    int32
}

// threadKeyLess is the canonical total order: (hi, lo) numerically,
// original index as the final tiebreak — so duplicate curves keep
// ascending original indices, which is what pairs the i-th occurrence
// in one instance with the i-th in another.
func threadKeyLess(a, b threadKey) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.idx < b.idx
}

// sortThreadKeys sorts keys in the canonical order. Large inputs take
// an LSD radix sort over the hi lane — comparison sorts cost more than
// the Assign2 solve itself at n=10⁴ — with a cleanup pass over the
// (vanishingly rare) equal-hi runs; small inputs just use sort.Slice.
func sortThreadKeys(keys []threadKey) {
	if len(keys) < 256 {
		sort.Slice(keys, func(i, j int) bool { return threadKeyLess(keys[i], keys[j]) })
		return
	}
	scratch := make([]threadKey, len(keys))
	src, dst := keys, scratch
	var counts [256]int32
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range src {
			counts[(k.hi>>shift)&0xFF]++
		}
		var sum int32
		for d := range counts {
			n := counts[d]
			counts[d] = sum
			sum += n
		}
		for _, k := range src {
			d := (k.hi >> shift) & 0xFF
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	// Eight stable passes land the result back in keys, ordered by hi
	// with equal-hi runs still in input (ascending idx) order. Finish
	// those runs with the full comparison — for 128-bit hashes a run
	// longer than one element is a 64-bit collision, so this pass is
	// effectively a single scan.
	for start := 0; start < len(keys); {
		end := start + 1
		for end < len(keys) && keys[end].hi == keys[start].hi {
			end++
		}
		if end-start > 1 {
			run := keys[start:end]
			sort.SliceStable(run, func(i, j int) bool { return threadKeyLess(run[i], run[j]) })
		}
		start = end
	}
}

// Canonical is an instance normalized for fingerprinting: per-thread
// hashes in ascending byte order, plus the permutation relating the
// canonical order back to the instance's own thread order.
type Canonical struct {
	// M and C are the instance's server count and per-server capacity.
	M int
	C float64
	// Hashes holds the thread hashes sorted ascending; duplicates (equal
	// utility curves) form runs.
	Hashes []ThreadHash
	// Perm maps canonical positions to original thread indices:
	// Perm[k] = i means canonical position k holds thread i. The sort is
	// stable, so equal hashes keep ascending original indices — the i-th
	// occurrence of a duplicate curve always maps to the i-th occurrence
	// in the other instance's canonical form, which is what makes
	// permuted exact hits byte-identical.
	Perm []int
	// version is the scheme the hashes came from (fingerprintVersion*);
	// Fingerprint folds it in so unkeyed, keyed and wire-byte
	// fingerprint spaces can never alias.
	version byte
}

// ToCanonical returns the canonical-order copy of an assignment given
// in the instance's own thread order: position k holds thread Perm[k]'s
// server and allocation. This is the layout an Entry stores.
func (c *Canonical) ToCanonical(server []int, alloc []float64) ([]int, []float64) {
	cs, ca := make([]int, len(c.Perm)), make([]float64, len(c.Perm))
	for k, orig := range c.Perm {
		cs[k], ca[k] = server[orig], alloc[orig]
	}
	return cs, ca
}

// FromCanonical is ToCanonical's inverse: it writes the canonical-order
// assignment (cs, ca) into server and alloc, each len(Perm) long, in
// this instance's own thread order. Un-permuting an entry through the
// requesting instance's Perm is what makes a permuted exact hit
// byte-identical to the populating answer.
func (c *Canonical) FromCanonical(server []int, alloc []float64, cs []int, ca []float64) {
	for k, orig := range c.Perm {
		server[orig], alloc[orig] = cs[k], ca[k]
	}
}

// fromKeys builds the canonical form from per-thread keys in thread
// order, sorting keys in place.
func fromKeys(m int, capacity float64, keys []threadKey, version byte) *Canonical {
	sortThreadKeys(keys)
	c := &Canonical{M: m, C: capacity, Hashes: make([]ThreadHash, len(keys)), Perm: make([]int, len(keys)), version: version}
	for k, tk := range keys {
		binary.BigEndian.PutUint64(c.Hashes[k][0:8], tk.hi)
		binary.BigEndian.PutUint64(c.Hashes[k][8:16], tk.lo)
		c.Perm[k] = int(tk.idx)
	}
	return c
}

// Fingerprint hashes the canonical form. Thread order was normalized by
// canonicalization, so two instances with the same thread multiset, m, and C
// fingerprint identically regardless of input order.
func (c *Canonical) Fingerprint() Fingerprint {
	h := sha256.New()
	var buf [8]byte
	buf[0] = c.version
	h.Write(buf[:1])
	binary.LittleEndian.PutUint64(buf[:], uint64(c.M))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.C))
	h.Write(buf[:])
	// ε is part of the identity: entries are stored only after passing
	// check.Feasible at this tolerance, so a build with a different ε
	// must not serve entries verified under the old one.
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(check.DefaultEps))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(c.Hashes)))
	h.Write(buf[:])
	for i := range c.Hashes {
		h.Write(c.Hashes[i][:])
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// GroupKey buckets canonical forms for the warm-start candidate ring:
// instances can only seed each other when they share m, C, and the
// backend, so the ring is keyed by exactly that triple.
func (c *Canonical) GroupKey(backend string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(c.M))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.C))
	h.Write(buf[:])
	io.WriteString(h, backend)
	return h.Sum64()
}

// Params are the request fields that alter a backend's output and so
// must separate cache keys. Seed matters only for stochastic backends —
// callers zero it for deterministic ones so equal instances share an
// entry across seeds.
type Params struct {
	Backend  string
	Seed     uint64
	MaxNodes int
	MaxMoves int
	Alt      bool
}

// RequestKey derives the storage key for one request: the instance
// fingerprint combined with the output-relevant request parameters.
func RequestKey(fp Fingerprint, p Params) Key {
	h := sha256.New()
	h.Write(fp[:])
	io.WriteString(h, p.Backend)
	var buf [8]byte
	buf[0] = 0
	h.Write(buf[:1]) // terminate the name so "a"+params can't alias "ap"+arams
	binary.LittleEndian.PutUint64(buf[:], p.Seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(p.MaxNodes)))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(p.MaxMoves)))
	h.Write(buf[:])
	if p.Alt {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	h.Write(buf[:1])
	var k Key
	h.Sum(k[:0])
	return k
}

// cmpHash compares two thread hashes numerically — equivalent to
// bytes.Compare (the layout is big-endian) but two uint64 comparisons
// instead of a byte loop, which matters on the Diff hot path.
func cmpHash(a, b *ThreadHash) int {
	ah, bh := binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(b[0:8])
	if ah != bh {
		if ah < bh {
			return -1
		}
		return 1
	}
	al, bl := binary.BigEndian.Uint64(a[8:16]), binary.BigEndian.Uint64(b[8:16])
	switch {
	case al < bl:
		return -1
	case al > bl:
		return 1
	}
	return 0
}

// Diff walks two canonical forms and pairs up their shared threads: it
// returns the matched canonical position pairs ([2]int{position in a,
// position in b}) and the unmatched positions on each side. Both hash
// slices are sorted, so the walk is a deterministic O(n) merge; runs of
// duplicate hashes match pairwise in order, which (with the stable sort
// in fromKeys) pairs the i-th occurrence in a with the i-th in b.
func Diff(a, b *Canonical) (matched [][2]int, onlyA, onlyB []int) {
	// Near-misses match almost everything: size matched for the full
	// overlap up front so the hot loop never regrows it.
	if cap := min(len(a.Hashes), len(b.Hashes)); cap > 0 {
		matched = make([][2]int, 0, cap)
	}
	i, j := 0, 0
	for i < len(a.Hashes) && j < len(b.Hashes) {
		switch c := cmpHash(&a.Hashes[i], &b.Hashes[j]); {
		case c == 0:
			matched = append(matched, [2]int{i, j})
			i++
			j++
		case c < 0:
			onlyA = append(onlyA, i)
			i++
		default:
			onlyB = append(onlyB, j)
			j++
		}
	}
	for ; i < len(a.Hashes); i++ {
		onlyA = append(onlyA, i)
	}
	for ; j < len(b.Hashes); j++ {
		onlyB = append(onlyB, j)
	}
	return matched, onlyA, onlyB
}
