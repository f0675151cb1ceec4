package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"aa/internal/core"
	"aa/internal/utility"
)

// inst builds a small instance from closed-form utilities.
func inst(m int, c float64, fs ...utility.Func) *core.Instance {
	return &core.Instance{M: m, C: c, Threads: fs}
}

// threads draws n deterministic pseudo-random utilities spanning the
// closed-form families.
func threads(seedOffset, n int, c float64) []utility.Func {
	r := rand.New(rand.NewSource(int64(977 + seedOffset)))
	fs := make([]utility.Func, n)
	for i := range fs {
		switch r.Intn(4) {
		case 0:
			fs[i] = utility.Linear{Slope: 1 + r.Float64(), C: c}
		case 1:
			fs[i] = utility.Log{Scale: 1 + r.Float64(), Shift: 1 + r.Float64(), C: c}
		case 2:
			fs[i] = utility.Power{Scale: 1 + r.Float64(), Beta: 0.3 + 0.5*r.Float64(), C: c}
		default:
			fs[i] = utility.SatExp{Scale: 1 + r.Float64(), K: 10 + 50*r.Float64(), C: c}
		}
	}
	return fs
}

func mustCanon(t *testing.T, in *core.Instance) *Canonical {
	t.Helper()
	c, err := CanonicalizeKeyed(in, HashKey{})
	if err != nil {
		t.Fatalf("CanonicalizeKeyed: %v", err)
	}
	return c
}

func TestFingerprintOrderInvariance(t *testing.T) {
	fs := threads(0, 30, 100)
	in := inst(4, 100, fs...)
	fp := mustCanon(t, in).Fingerprint()

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := r.Perm(len(fs))
		shuffled := make([]utility.Func, len(fs))
		for i, p := range perm {
			shuffled[i] = fs[p]
		}
		got := mustCanon(t, inst(4, 100, shuffled...)).Fingerprint()
		if got != fp {
			t.Fatalf("trial %d: permuted instance fingerprints differently:\n%s\n%s", trial, got, fp)
		}
	}
}

func TestFingerprintCollisionResistance(t *testing.T) {
	// Distinct instances — across sizes, shapes and parameters — must all
	// fingerprint differently. 600+ fingerprints at 256 bits: a single
	// collision here means the scheme is broken, not unlucky.
	seen := map[Fingerprint]string{}
	add := func(label string, in *core.Instance) {
		t.Helper()
		fp := mustCanon(t, in).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("collision between %s and %s", prev, label)
		}
		seen[fp] = label
	}
	for s := 0; s < 60; s++ {
		for _, n := range []int{1, 5, 17} {
			add("rand", inst(3, 100, threads(100+13*s+n, n, 100)...))
		}
	}
	base := threads(1, 8, 100)
	add("base", inst(3, 100, base...))
	add("m", inst(4, 100, base...))
	add("C", inst(3, 101, base...))
	add("dup-last", inst(3, 100, append(append([]utility.Func{}, base...), base[7])...))
	add("truncated", inst(3, 100, base[:7]...))
	mutated := append([]utility.Func{}, base...)
	mutated[3] = utility.Linear{Slope: 123.456, C: 100}
	add("one-thread", inst(3, 100, mutated...))
	capped := append([]utility.Func{}, base...)
	if l, ok := capped[0].(utility.Linear); ok {
		l.C = 50
		capped[0] = l
	} else {
		capped[0] = utility.Linear{Slope: 9, C: 50}
	}
	add("one-cap", inst(3, 100, capped...))
}

func TestCanonicalizeDeterministic(t *testing.T) {
	// Run-twice byte-compare: the canonical form (and everything derived
	// from it) must not depend on map iteration order or any other
	// per-run state.
	in := inst(5, 100, threads(42, 25, 100)...)
	a, b := mustCanon(t, in), mustCanon(t, in)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same instance fingerprints differently across runs")
	}
	for i := range a.Hashes {
		if a.Hashes[i] != b.Hashes[i] || a.Perm[i] != b.Perm[i] {
			t.Fatalf("canonical form differs at %d: (%x,%d) vs (%x,%d)",
				i, a.Hashes[i], a.Perm[i], b.Hashes[i], b.Perm[i])
		}
	}
}

func TestCanonicalPermRoundTrip(t *testing.T) {
	in := inst(3, 100, threads(9, 40, 100)...)
	c := mustCanon(t, in)
	if len(c.Hashes) != 40 || len(c.Perm) != 40 {
		t.Fatalf("canonical sizes %d/%d, want 40", len(c.Hashes), len(c.Perm))
	}
	for i := 1; i < len(c.Hashes); i++ {
		if bytes.Compare(c.Hashes[i-1][:], c.Hashes[i][:]) > 0 {
			t.Fatalf("hashes not sorted at %d", i)
		}
	}
	covered := make([]bool, 40)
	for _, orig := range c.Perm {
		if orig < 0 || orig >= 40 || covered[orig] {
			t.Fatalf("Perm is not a permutation: %v", c.Perm)
		}
		covered[orig] = true
	}
}

func TestCanonicalPermStableForDuplicates(t *testing.T) {
	// Equal curves hash equally; the stable sort must keep their original
	// indices ascending inside the run, so the i-th duplicate in one
	// instance pairs with the i-th in another.
	dup := utility.Log{Scale: 2, Shift: 5, C: 100}
	other := utility.Linear{Slope: 3, C: 100}
	in := inst(2, 100, dup, other, dup, dup)
	c := mustCanon(t, in)
	var dupIdx []int
	for k, orig := range c.Perm {
		if orig == 0 || orig == 2 || orig == 3 {
			_ = k
			dupIdx = append(dupIdx, orig)
		}
	}
	if len(dupIdx) != 3 || dupIdx[0] != 0 || dupIdx[1] != 2 || dupIdx[2] != 3 {
		t.Fatalf("duplicate run not in ascending original order: %v (Perm %v)", dupIdx, c.Perm)
	}
}

func TestCanonicalizeUnencodable(t *testing.T) {
	bad := inst(2, 100, unencodable{})
	if _, err := CanonicalizeKeyed(bad, HashKey{}); err == nil {
		t.Fatal("expected an error for a utility type without a wire encoding")
	}
}

// unencodable is a utility.Func instio has no case for.
type unencodable struct{}

func (unencodable) Value(x float64) float64 { return x }
func (unencodable) Deriv(x float64) float64 { return 1 }
func (unencodable) Cap() float64            { return 1 }

func TestRequestKeyDiscriminates(t *testing.T) {
	fp := mustCanon(t, inst(3, 100, threads(3, 6, 100)...)).Fingerprint()
	base := Params{Backend: "assign2"}
	keys := map[Key]string{}
	add := func(label string, p Params) {
		t.Helper()
		k := RequestKey(fp, p)
		if prev, dup := keys[k]; dup {
			t.Fatalf("request key collision between %s and %s", prev, label)
		}
		keys[k] = label
	}
	add("base", base)
	add("backend", Params{Backend: "assign1"})
	add("seed", Params{Backend: "assign2", Seed: 1})
	add("maxnodes", Params{Backend: "assign2", MaxNodes: 100})

	// Same params, different fingerprint.
	fp2 := mustCanon(t, inst(4, 100, threads(3, 6, 100)...)).Fingerprint()
	if RequestKey(fp, base) == RequestKey(fp2, base) {
		t.Fatal("different fingerprints share a request key")
	}
	// Determinism.
	if RequestKey(fp, base) != RequestKey(fp, base) {
		t.Fatal("request key not deterministic")
	}
}

func TestGroupKey(t *testing.T) {
	a := mustCanon(t, inst(3, 100, threads(1, 4, 100)...))
	b := mustCanon(t, inst(3, 100, threads(2, 9, 100)...)) // different threads, same (m, C)
	if a.GroupKey("assign2") != b.GroupKey("assign2") {
		t.Fatal("same (m, C, backend) should share a group")
	}
	if a.GroupKey("assign2") == a.GroupKey("assign1") {
		t.Fatal("backend should separate groups")
	}
	c := mustCanon(t, inst(4, 100, threads(1, 4, 100)...))
	if a.GroupKey("assign2") == c.GroupKey("assign2") {
		t.Fatal("m should separate groups")
	}
	d := mustCanon(t, inst(3, 200, threads(1, 4, 100)...))
	if a.GroupKey("assign2") == d.GroupKey("assign2") {
		t.Fatal("C should separate groups")
	}
}

func TestDiff(t *testing.T) {
	fs := threads(5, 10, 100)
	a := mustCanon(t, inst(3, 100, fs...))

	t.Run("identical", func(t *testing.T) {
		b := mustCanon(t, inst(3, 100, fs...))
		matched, onlyA, onlyB := Diff(a, b)
		if len(matched) != 10 || len(onlyA) != 0 || len(onlyB) != 0 {
			t.Fatalf("matched %d onlyA %d onlyB %d, want 10/0/0", len(matched), len(onlyA), len(onlyB))
		}
		for _, pr := range matched {
			if pr[0] != pr[1] {
				t.Fatalf("identical canonical forms should match positionally: %v", pr)
			}
		}
	})

	t.Run("k-thread churn", func(t *testing.T) {
		churned := append([]utility.Func{}, fs...)
		churned[2] = utility.Linear{Slope: 77.7, C: 100}
		churned[7] = utility.Log{Scale: 88.8, Shift: 1, C: 100}
		b := mustCanon(t, inst(3, 100, churned...))
		matched, onlyA, onlyB := Diff(a, b)
		if len(matched) != 8 || len(onlyA) != 2 || len(onlyB) != 2 {
			t.Fatalf("matched %d onlyA %d onlyB %d, want 8/2/2", len(matched), len(onlyA), len(onlyB))
		}
		// Matched pairs must point at equal hashes, and matched positions
		// in b must map back to unchanged original threads.
		for _, pr := range matched {
			if a.Hashes[pr[0]] != b.Hashes[pr[1]] {
				t.Fatalf("matched pair %v has unequal hashes", pr)
			}
			orig := b.Perm[pr[1]]
			if orig == 2 || orig == 7 {
				t.Fatalf("changed thread %d reported as matched", orig)
			}
		}
	})

	t.Run("added and removed", func(t *testing.T) {
		grown := append(append([]utility.Func{}, fs...), utility.SatExp{Scale: 2, K: 5, C: 100})
		b := mustCanon(t, inst(3, 100, grown...))
		matched, onlyA, onlyB := Diff(a, b)
		if len(matched) != 10 || len(onlyA) != 0 || len(onlyB) != 1 {
			t.Fatalf("grow: matched %d onlyA %d onlyB %d, want 10/0/1", len(matched), len(onlyA), len(onlyB))
		}
		matched, onlyA, onlyB = Diff(b, a)
		if len(matched) != 10 || len(onlyA) != 1 || len(onlyB) != 0 {
			t.Fatalf("shrink: matched %d onlyA %d onlyB %d, want 10/1/0", len(matched), len(onlyA), len(onlyB))
		}
	})

	t.Run("duplicates pair in order", func(t *testing.T) {
		dup := utility.Log{Scale: 2, Shift: 5, C: 100}
		x := mustCanon(t, inst(2, 100, dup, dup, dup))
		y := mustCanon(t, inst(2, 100, dup, dup))
		matched, onlyA, onlyB := Diff(x, y)
		if len(matched) != 2 || len(onlyA) != 1 || len(onlyB) != 0 {
			t.Fatalf("matched %d onlyA %d onlyB %d, want 2/1/0", len(matched), len(onlyA), len(onlyB))
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		churned := append([]utility.Func{}, fs...)
		churned[4] = utility.Power{Scale: 5, Beta: 0.5, C: 100}
		b := mustCanon(t, inst(3, 100, churned...))
		m1, a1, b1 := Diff(a, b)
		m2, a2, b2 := Diff(a, b)
		if len(m1) != len(m2) || len(a1) != len(a2) || len(b1) != len(b2) {
			t.Fatal("diff sizes differ across runs")
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("diff pair %d differs across runs", i)
			}
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("onlyA %d differs across runs", i)
			}
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("onlyB %d differs across runs", i)
			}
		}
	})
}

func TestStringForms(t *testing.T) {
	c := mustCanon(t, inst(2, 100, threads(8, 3, 100)...))
	fp := c.Fingerprint()
	if len(fp.String()) != 64 {
		t.Fatalf("fingerprint hex %q not 64 chars", fp.String())
	}
	k := RequestKey(fp, Params{Backend: "assign2"})
	if len(k.String()) != 64 {
		t.Fatalf("key hex %q not 64 chars", k.String())
	}
}

// TestCanonicalizeLargeRadixPath drives canonicalization through the radix
// sort (n ≥ 256) with duplicate runs, cross-checking the exact
// invariants the small-n comparison sort gives: hashes ascending, Perm
// a permutation, duplicates in ascending original order, and the
// fingerprint invariant under shuffling at scale.
func TestCanonicalizeLargeRadixPath(t *testing.T) {
	const n = 1000
	c := 100.0
	fs := make([]utility.Func, 0, n)
	fs = append(fs, threads(3, 600, c)...)
	// 100 distinct curves × 4 copies each, interleaved so duplicate runs
	// arrive scattered through the input order.
	dups := threads(4, 100, c)
	for copyRound := 0; copyRound < 4; copyRound++ {
		fs = append(fs, dups...)
	}
	in := inst(8, c, fs...)
	canon := mustCanon(t, in)

	seen := make([]bool, n)
	for k, orig := range canon.Perm {
		if orig < 0 || orig >= n || seen[orig] {
			t.Fatalf("Perm[%d] = %d is not a permutation", k, orig)
		}
		seen[orig] = true
	}
	for k := 1; k < n; k++ {
		switch bytes.Compare(canon.Hashes[k-1][:], canon.Hashes[k][:]) {
		case 1:
			t.Fatalf("hashes out of order at %d", k)
		case 0:
			if canon.Perm[k-1] >= canon.Perm[k] {
				t.Fatalf("duplicate run at %d not in ascending original order: %d then %d",
					k, canon.Perm[k-1], canon.Perm[k])
			}
		}
	}

	fp := canon.Fingerprint()
	r := rand.New(rand.NewSource(11))
	perm := r.Perm(n)
	shuffled := make([]utility.Func, n)
	for i, p := range perm {
		shuffled[i] = fs[p]
	}
	if got := mustCanon(t, inst(8, c, shuffled...)).Fingerprint(); got != fp {
		t.Fatalf("large shuffled instance fingerprints differently:\n%s\n%s", got, fp)
	}
}

// TestSortThreadKeysMatchesComparisonSort checks the bucketed sort
// against slices.SortFunc on uniform hashes, on keys that share the top
// hash bits (every key in one bucket: the comparison-sort fallback) and on
// small buckets full of equal hi lanes (the insertion pass, with the
// lo lane and the original index deciding).
func TestSortThreadKeysMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		hi   func(i int) uint64
	}{
		{"uniform", func(int) uint64 { return r.Uint64() }},
		{"shared-prefix", func(int) uint64 { return r.Uint64() >> 40 }},
		{"equal-hi-runs", func(i int) uint64 { return uint64(i%97) << 50 }},
	} {
		for _, n := range []int{255, 256, 1000, 5000} {
			ks := getKeyScratch(n)
			for i := range ks.keys {
				ks.keys[i] = threadKey{hi: tc.hi(i), lo: uint64(r.Intn(3)), idx: int32(i)}
			}
			want := slices.Clone(ks.keys)
			slices.SortFunc(want, func(a, b threadKey) int {
				switch {
				case threadKeyLess(&a, &b):
					return -1
				case threadKeyLess(&b, &a):
					return 1
				}
				return 0
			})
			if got := ks.order(); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: bucketed sort differs from the comparison sort", tc.name, n)
			}
			keyScratchPool.Put(ks)
		}
	}
}
