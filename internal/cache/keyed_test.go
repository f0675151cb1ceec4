package cache

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"aa/internal/instio"
	"aa/internal/utility"
)

// TestHash128GoldenUnkeyed pins the unkeyed hash byte-for-byte: memory-
// mode fingerprints must survive the keyed-hash refactor (and any future
// one) unchanged, or every deployed cache silently cold-starts.
func TestHash128GoldenUnkeyed(t *testing.T) {
	golden := []struct {
		in     string
		hi, lo uint64
	}{
		{"", 0xBB254DDED35FA2E9, 0x3FBF1D97C6ABD32A},
		{"a", 0x33D419678FD69C74, 0x8ABD111E15822257},
		{"abcdefgh", 0x8A6BB9515EBCD3C3, 0x1A637C49CEF724A7},
		{"the quick brown fox jumps over the lazy dog", 0x2A0172BC7D45DDC8, 0x185B312A64B5614F},
	}
	mx := newMixer(&HashKey{})
	for _, g := range golden {
		hi, lo := mx.hash128([]byte(g.in))
		if hi != g.hi || lo != g.lo {
			t.Errorf("hash128(%q, zero key) = %016X %016X, want %016X %016X", g.in, hi, lo, g.hi, g.lo)
		}
	}
}

// TestHash128GoldenKeyed pins one keyed lane the same way: a cluster of
// relays sharing -cache-key must keep deriving identical fingerprints
// across releases, or rolling restarts wipe the shared hit rate.
func TestHash128GoldenKeyed(t *testing.T) {
	k := KeyFromString("cluster-secret")
	want := HashKey{0xBFF71BE3C2F1B62F, 0x8A5AF5E26631CCD3, 0xB7D370158D40A130, 0x3C03ECBAF2684C3D}
	if k != want {
		t.Fatalf("KeyFromString(cluster-secret) = %#v, want %#v", k, want)
	}
	golden := []struct {
		in     string
		hi, lo uint64
	}{
		{"", 0xC9B1E25F423E27A9, 0x7FE699D649088301},
		{"a", 0xB096CFC8B7BA88D3, 0x0D69BECB715599A3},
		{"abcdefgh", 0xB0FFC466116ED6E9, 0xD64BA4048DD11308},
		{"the quick brown fox jumps over the lazy dog", 0x474EC9A437919B33, 0x2DD8B98B486CC565},
	}
	mx := newMixer(&k)
	for _, g := range golden {
		hi, lo := mx.hash128([]byte(g.in))
		if hi != g.hi || lo != g.lo {
			t.Errorf("hash128(%q) = %016X %016X, want %016X %016X", g.in, hi, lo, g.hi, g.lo)
		}
	}
}

// TestCanonicalizeKeyedZeroKeyMatchesUnkeyed: the zero key is the
// unkeyed scheme — every thread hash is the golden-pinned unkeyed hash
// of the thread's binary encoding, under the unkeyed scheme version.
func TestCanonicalizeKeyedZeroKeyMatchesUnkeyed(t *testing.T) {
	in := inst(4, 100, threads(3, 40, 100)...)
	c := mustCanon(t, in)
	if c.version != fingerprintVersion {
		t.Fatalf("zero-key scheme version %d, want the unkeyed %d", c.version, fingerprintVersion)
	}
	for k, i := range c.Perm {
		b, err := instio.AppendThreadBinary(nil, in.Threads[i])
		if err != nil {
			t.Fatal(err)
		}
		var want ThreadHash
		mx := newMixer(&HashKey{})
		hi, lo := mx.hash128(b)
		binary.BigEndian.PutUint64(want[:8], hi)
		binary.BigEndian.PutUint64(want[8:], lo)
		if c.Hashes[k] != want {
			t.Fatalf("canonical position %d (thread %d): hash %x, want the unkeyed %x", k, i, c.Hashes[k], want)
		}
	}
}

// Distinct keys must induce disjoint fingerprint spaces — including
// disjoint from the unkeyed space even for the same instance, which the
// scheme-version marker guarantees independently of hash behavior.
func TestCanonicalizeKeyedSeparatesKeySpaces(t *testing.T) {
	in := inst(4, 100, threads(5, 40, 100)...)
	unkeyed := mustCanon(t, in).Fingerprint()
	k1, err := CanonicalizeKeyed(in, KeyFromString("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalizeKeyed(in, KeyFromString("beta"))
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := k1.Fingerprint(), k2.Fingerprint()
	if f1 == f2 {
		t.Fatal("different keys produced the same fingerprint")
	}
	if f1 == unkeyed || f2 == unkeyed {
		t.Fatal("keyed fingerprint collides with unkeyed")
	}
}

// Keyed canonical forms must keep the order-invariance contract: the
// same thread multiset fingerprints identically however it arrives.
func TestCanonicalizeKeyedOrderInvariance(t *testing.T) {
	key := KeyFromString("perm-check")
	fs := threads(9, 30, 100)
	base, err := CanonicalizeKeyed(inst(4, 100, fs...), key)
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint()
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		perm := r.Perm(len(fs))
		shuffled := make([]utility.Func, len(fs))
		for i, p := range perm {
			shuffled[i] = fs[p]
		}
		c, err := CanonicalizeKeyed(inst(4, 100, shuffled...), key)
		if err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() != fp {
			t.Fatalf("trial %d: permuted instance fingerprints differently under key", trial)
		}
		// Perm must still un-permute: canonical position k holds the
		// thread originally at c.Perm[k].
		for k := range c.Perm {
			if base.Hashes[k] != c.Hashes[k] {
				t.Fatalf("trial %d: canonical hash order diverged", trial)
			}
		}
	}
}

func TestKeyFromString(t *testing.T) {
	if !KeyFromString("").IsZero() {
		t.Fatal("empty secret must map to the zero (unkeyed) key")
	}
	a, b := KeyFromString("s1"), KeyFromString("s1")
	if a != b {
		t.Fatal("KeyFromString not deterministic")
	}
	if a.IsZero() {
		t.Fatal("non-empty secret mapped to zero key")
	}
	if a == KeyFromString("s2") {
		t.Fatal("distinct secrets mapped to the same key")
	}
}

func TestRandomKey(t *testing.T) {
	a, b := RandomKey(), RandomKey()
	if a.IsZero() || b.IsZero() {
		t.Fatal("RandomKey returned the zero key")
	}
	if a == b {
		t.Fatal("two RandomKey draws collided")
	}
}

// TestSharedModeIsMemory pins the factory contract: shared is another
// spelling of memory. Either hashes with Config.Key, and unkeyed
// without one; the factory never draws a key itself.
func TestSharedModeIsMemory(t *testing.T) {
	want := KeyFromString("cluster")
	for _, mode := range []Mode{ModeMemory, ModeShared} {
		plain, err := New(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !plain.HashKey().IsZero() {
			t.Fatalf("%s mode without a key must hash unkeyed", mode)
		}
		keyed, err := New(Config{Mode: mode, Key: want})
		if err != nil {
			t.Fatal(err)
		}
		if keyed.HashKey() != want {
			t.Fatalf("%s mode dropped the configured key", mode)
		}
	}
	if !Noop().HashKey().IsZero() {
		t.Fatal("noop cache must report the zero key")
	}
}

// TestKeyedExactHitRoundTrip drives the canonical store/serve pattern
// under a keyed cache: an entry stored in canonical order for one
// thread order is recovered exactly for a permutation of the same
// instance — the relay-side consistency contract.
func TestKeyedExactHitRoundTrip(t *testing.T) {
	c, err := New(Config{Mode: ModeShared, Key: KeyFromString("roundtrip")})
	if err != nil {
		t.Fatal(err)
	}
	fs := threads(13, 20, 100)
	in := inst(3, 100, fs...)
	canon, err := CanonicalizeKeyed(in, c.HashKey())
	if err != nil {
		t.Fatal(err)
	}
	key := RequestKey(canon.Fingerprint(), Params{Backend: "assign2"})
	server := make([]int, len(fs))
	alloc := make([]float64, len(fs))
	for i := range server {
		server[i] = i % 3
		alloc[i] = float64(i) + 0.5
	}
	e := &Entry{Canon: canon, Server: make([]int, len(fs)), Alloc: make([]float64, len(fs)), Backend: "assign2"}
	for k, orig := range canon.Perm {
		e.Server[k] = server[orig]
		e.Alloc[k] = alloc[orig]
	}
	c.Put(key, canon.GroupKey("assign2"), e)

	// A permuted arrival of the same threads must hit the same key and
	// un-permute to its own order.
	perm := rand.New(rand.NewSource(3)).Perm(len(fs))
	shuffled := make([]utility.Func, len(fs))
	for i, p := range perm {
		shuffled[i] = fs[p]
	}
	canon2, err := CanonicalizeKeyed(inst(3, 100, shuffled...), c.HashKey())
	if err != nil {
		t.Fatal(err)
	}
	key2 := RequestKey(canon2.Fingerprint(), Params{Backend: "assign2"})
	if key2 != key {
		t.Fatal("permuted instance derived a different keyed request key")
	}
	got, ok := c.Get(key2)
	if !ok {
		t.Fatal("keyed exact hit missed")
	}
	for k, orig := range canon2.Perm {
		// shuffled[orig] is fs[perm[orig]]: the served values must match
		// that original thread's.
		if got.Server[k] != server[perm[orig]] || got.Alloc[k] != alloc[perm[orig]] {
			t.Fatalf("canonical position %d served wrong thread's assignment", k)
		}
	}
}

// TestCanonicalizeWire: the wire form identifies threads by their exact
// element bytes. Reordering the threads, the top-level keys or the
// whitespace between elements keeps the fingerprint and maps Perm to
// the new order; respelling one thread's number or whitespace inside it
// changes it; the scheme never meets the decoded keyed one; and bodies
// the node would reject outside a thread element do not canonicalize.
func TestCanonicalizeWire(t *testing.T) {
	key := KeyFromString("wire")
	const a, b, c = `{"kind":"linear","slope":500}`, `{"kind":"log","scale":1,"shift":2}`, `{"kind":"power","scale":1,"beta":0.5}`
	body := `{"m":2,"c":100,"threads":[` + a + `,` + b + `,` + c + `]}`
	base, err := CanonicalizeWire([]byte(body), key)
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint()
	perm, err := CanonicalizeWire([]byte(` {"threads":[ `+c+`,`+a+` ,`+b+`],"c":1e2,"m":2}`), key)
	if err != nil {
		t.Fatal(err)
	}
	if perm.Fingerprint() != fp {
		t.Fatal("a permuted repeat fingerprints differently")
	}
	// Canonical position k holds the same thread in both; Perm names
	// its index in each body.
	order := map[int]int{2: 0, 0: 1, 1: 2} // index in body → index in the permuted body
	for k := range base.Perm {
		if order[base.Perm[k]] != perm.Perm[k] {
			t.Fatalf("canonical position %d: Perm %d and %d are not the same thread", k, base.Perm[k], perm.Perm[k])
		}
	}
	for _, respelled := range []string{
		`{"m":2,"c":100,"threads":[{"kind":"linear","slope":5e2},` + b + `,` + c + `]}`,
		`{"m":2,"c":100,"threads":[{"kind": "linear","slope":500},` + b + `,` + c + `]}`,
		`{"m":3,"c":100,"threads":[` + a + `,` + b + `,` + c + `]}`,
	} {
		w, err := CanonicalizeWire([]byte(respelled), key)
		if err != nil {
			t.Fatal(err)
		}
		if w.Fingerprint() == fp {
			t.Fatalf("%s fingerprints like %s", respelled, body)
		}
	}
	if other, _ := CanonicalizeWire([]byte(body), KeyFromString("other")); other.Fingerprint() == fp {
		t.Fatal("two keys give one fingerprint")
	}
	if zero, _ := CanonicalizeWire([]byte(body), HashKey{}); zero.Fingerprint() == fp {
		t.Fatal("the zero key gives the keyed fingerprint")
	}
	in, err := instio.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if dec, _ := CanonicalizeKeyed(in, key); dec.Fingerprint() == fp {
		t.Fatal("the wire and decoded schemes share a fingerprint")
	}
	for _, bad := range []string{
		`{"m":2,"m":2,"c":100,"threads":[` + a + `]}`,
		`{"m":2,"c":100,"threads":[` + a + `]}x`,
		`{"m":2,"c":100,"threads":[` + a + `,]}`,
		`{"m":0,"c":100,"threads":[` + a + `]}`,
	} {
		if _, err := CanonicalizeWire([]byte(bad), key); err == nil {
			t.Fatalf("CanonicalizeWire accepts %s", bad)
		}
	}
}
