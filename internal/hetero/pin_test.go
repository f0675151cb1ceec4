package hetero

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"aa/internal/rng"
)

// TestSkewSeriesPinned pins the exact rendered table of a short sweep.
func TestSkewSeriesPinned(t *testing.T) {
	const want = `ext-hetero: capacity skew sweep (m=4, ΣC=400, n=20, 5 trials)
skew  bigC  A/SO    A/RR    A/PROP
----  ----  ------  ------  ------
0.25  100   0.9867  1.9008  1.1015
0.40  160   0.8638  1.8459  1.1176
0.55  220   0.8694  2.9101  1.1928
0.70  280   0.9192  2.1939  1.0397
0.85  340   0.9567  3.7450  1.0320
`
	tbl, err := SkewSeries(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.String(); got != want {
		t.Errorf("SkewSeries(5, 1):\n%s\nwant:\n%s", got, want)
	}
}

// TestSolverBitsPinned pins the exact bits of every allocation (and the
// server ids, where they are unique) of the heterogeneous solvers over a
// seeded corpus. Assign's server ids are left out: servers with equal
// residuals are interchangeable, so only its allocations are pinned.
func TestSolverBitsPinned(t *testing.T) {
	want := map[string]string{
		"assign":       "b2ca4b6c15299c9933f8e942e551e20867833079c3a7b2fa25e93e7da84b1a5f",
		"roundrobin":   "d66e0220c0c04b165f07fbb4b74f8900a5c5de3c669ec8fd3745d3bec44f6fe1",
		"proportional": "8ad83a6799f4bdfcf267961fd791b0af008198756576562a4584448411083c13",
		"exhaustive":   "3fc76863765cc4f987ed6ebc89f8f0cff4be65b77cfe8ca52719d3a9b3bb9fd7",
		"bound":        "225b96a47d2bc51e0a8fc16702b129f481c50fd87deea5c2696409d2177866ef",
	}
	sums := map[string]hash.Hash{}
	for name := range want {
		sums[name] = sha256.New()
	}
	put := func(name string, servers []int, xs ...float64) {
		var b [8]byte
		h := sums[name]
		for _, s := range servers {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(s)))
			h.Write(b[:])
		}
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	capSets := [][]float64{{100, 100, 100}, {20, 200}, {50, 100, 150, 25}, {1000}, {60, 30, 30}}
	base := rng.New(2202)
	for trial := 0; trial < 40; trial++ {
		r := base.Split(uint64(trial))
		caps := capSets[trial%len(capSets)]
		in := randomInstance(r, 1+r.Intn(7), caps)
		a := Assign(in)
		put("assign", nil, a.Alloc...)
		rr := AssignRoundRobin(in)
		put("roundrobin", rr.Server, rr.Alloc...)
		p := AssignProportional(in)
		put("proportional", p.Server, p.Alloc...)
		ex, err := Exhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		put("exhaustive", ex.Server, ex.Alloc...)
		so := SuperOptimal(in)
		put("bound", nil, append(append([]float64{so.Total}, so.Alloc...), so.Value...)...)
	}
	for name, w := range want {
		if got := hex.EncodeToString(sums[name].Sum(nil)); got != w {
			t.Errorf("%s: digest %s, want %s", name, got, w)
		}
	}
}
