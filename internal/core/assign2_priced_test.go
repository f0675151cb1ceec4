package core_test

// Differential tests for Algorithm 2's priced-out fast path: whichever
// path runs, Assign2 must give every thread the server and the exact
// allocation bits of the paper's plain ordering (core.Assign2Reference:
// two stable sorts of all n threads, then the heap). Each hand-built
// case is also shown to take the path it targets.

import (
	"fmt"
	"math"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// assertBitsEqual fails unless got and want place every thread on the
// same server with the same allocation bits.
func assertBitsEqual(t *testing.T, label string, got, want core.Assignment) {
	t.Helper()
	if len(got.Server) != len(want.Server) {
		t.Fatalf("%s: %d threads, reference has %d", label, len(got.Server), len(want.Server))
	}
	for i := range want.Server {
		if got.Server[i] != want.Server[i] || math.Float64bits(got.Alloc[i]) != math.Float64bits(want.Alloc[i]) {
			t.Fatalf("%s: thread %d: (server %d, alloc %v = %#x) != reference (server %d, alloc %v = %#x)",
				label, i, got.Server[i], got.Alloc[i], math.Float64bits(got.Alloc[i]),
				want.Server[i], want.Alloc[i], math.Float64bits(want.Alloc[i]))
		}
	}
}

// TestAssign2MatchesReferenceFigureCorpus runs the six figure workloads
// at n ∈ {10², 10³, 10⁴} and m ∈ {1, 2, 8, 64} through one reused
// workspace, each instance as generated and with every seventh curve
// shifted up by f(0) = 10⁶, where a priced-out thread can outrank the
// priced-in ones. Both paths must have run.
func TestAssign2MatchesReferenceFigureCorpus(t *testing.T) {
	w := core.NewWorkspace()
	var out core.Assignment
	paths := map[string]int{}
	for wi, wl := range check.FigureWorkloads() {
		for _, n := range []int{100, 1000, 10000} {
			for _, m := range []int{1, 2, 8, 64} {
				in, err := gen.Instance(wl.Dist, m, 1000, n, rng.New(uint64(5100+wi*100+m)).Split(uint64(n)))
				if err != nil {
					t.Fatalf("%s: gen.Instance: %v", wl.Name, err)
				}
				for _, shifted := range []bool{false, true} {
					if shifted {
						in = shiftEvery(in, 7, 1e6)
					}
					label := fmt.Sprintf("%s n=%d m=%d shifted=%v", wl.Name, n, m, shifted)
					gs := core.Linearize(in, core.SuperOptimal(in))
					caps := uniformCaps(m, in.C)
					paths[fmt.Sprintf("shifted=%v fast=%v", shifted, w.Assign2PricedOut(gs, caps))]++
					w.Assign2Linearized(in, gs, &out)
					assertBitsEqual(t, label, out, core.Assign2Reference(gs, caps))
				}
			}
		}
	}
	t.Logf("paths: %v", paths)
	if paths["shifted=false fast=true"] == 0 || paths["shifted=true fast=false"] == 0 {
		t.Fatalf("paths: %v; want both", paths)
	}
}

// shiftEvery returns in with every k-th thread's curve raised by base.
func shiftEvery(in *core.Instance, k int, base float64) *core.Instance {
	threads := append([]utility.Func(nil), in.Threads...)
	for i := 0; i < len(threads); i += k {
		threads[i] = utility.Offset{Base: base, F: threads[i]}
	}
	return &core.Instance{M: in.M, C: in.C, Threads: threads}
}

func uniformCaps(m int, c float64) []float64 {
	caps := make([]float64, m)
	for j := range caps {
		caps[j] = c
	}
	return caps
}

// TestAssign2PricedOutCases holds each hand-built linearization to the
// reference and to the path it targets: one case per broken
// precondition, falling back to the full sort, beside cases the fast
// path must take.
func TestAssign2PricedOutCases(t *testing.T) {
	const c = 10.0
	negZero := math.Copysign(0, -1)
	// base: 3 priced-in threads above 4 priced-out ones, m = 2.
	base := func() []core.Linearized {
		return []core.Linearized{
			{UHat: 1, CHat: 0, C: c}, {UHat: 6, CHat: 4, C: c}, {UHat: 0.5, CHat: 0, C: c},
			{UHat: 9, CHat: 7, C: c}, {UHat: 1, CHat: 0, C: c}, {UHat: 3, CHat: 6, C: c},
			{UHat: 0, CHat: 0, C: c},
		}
	}
	with := func(edit func(gs []core.Linearized) []core.Linearized) []core.Linearized { return edit(base()) }
	cases := []struct {
		name string
		caps []float64
		gs   []core.Linearized
		fast bool
	}{
		{"fast", []float64{c, c}, base(), true},
		{"fast-ties", []float64{c, c, c}, []core.Linearized{
			{UHat: 5, CHat: 4, C: c}, {UHat: 2, CHat: 0, C: c}, {UHat: 5, CHat: 4, C: c},
			{UHat: 5, CHat: 2, C: c}, {UHat: 2, CHat: 0, C: c}, {UHat: 5, CHat: 4, C: c},
		}, true},
		{"fast-saturated", []float64{c}, with(func(gs []core.Linearized) []core.Linearized {
			return append(gs, core.Linearized{UHat: 4, CHat: c, C: c})
		}), true},
		{"fast-neg-zero-chat", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			gs[0].CHat, gs[6].CHat = negZero, negZero
			return gs
		}), true},
		{"fast-hetero", []float64{3, c, 0, 7}, with(func(gs []core.Linearized) []core.Linearized {
			return append(gs, core.Linearized{UHat: 8, CHat: 2, C: c}, core.Linearized{UHat: 2, CHat: 1, C: c})
		}), true},
		{"k-below-m", []float64{c, c, c, c}, base(), false},
		{"all-priced-out", []float64{c, c}, []core.Linearized{
			{UHat: 1, CHat: 0, C: c}, {UHat: 3, CHat: 0, C: c}, {UHat: 2, CHat: negZero, C: c},
		}, false},
		{"none-priced-out", []float64{c}, []core.Linearized{
			{UHat: 1, CHat: 2, C: c}, {UHat: 3, CHat: 1, C: c},
		}, false},
		// f(0) > 0 (a shifted curve): a priced-out thread's g(ĉ) = f(0)
		// outranks a priced-in one and sorts into the head.
		{"shifted-into-head", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			gs[4].UHat = 7
			return gs
		}), false},
		// A tie in g(ĉ) breaks by index, so a priced-out thread tied with
		// a priced-in one can sort into the head ahead of it.
		{"tie-into-head", []float64{c, c}, []core.Linearized{
			{UHat: 5, CHat: 0, C: c}, {UHat: 5, CHat: 4, C: c}, {UHat: 6, CHat: 3, C: c},
			{UHat: 1, CHat: 0, C: c},
		}, false},
		{"priced-in-slope-zero", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			return append(gs, core.Linearized{UHat: 0, CHat: 2, C: c})
		}), false},
		{"nan-priced-out-key", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			gs[2].UHat = math.NaN()
			return gs
		}), false},
		{"nan-priced-in-key", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			return append(gs, core.Linearized{UHat: math.NaN(), CHat: 2, C: c})
		}), false},
		{"negative-chat", []float64{c, c}, with(func(gs []core.Linearized) []core.Linearized {
			gs[0].CHat = -1
			return gs
		}), false},
		{"neg-zero-cap", []float64{c, negZero}, base(), false},
	}
	w := core.NewWorkspace()
	var out core.Assignment
	for _, tc := range cases {
		if got := w.Assign2PricedOut(tc.gs, tc.caps); got != tc.fast {
			t.Errorf("%s: fast path = %v, want %v", tc.name, got, tc.fast)
		}
		w.Assign2Caps(tc.gs, tc.caps, &out)
		assertBitsEqual(t, tc.name, out, core.Assign2Reference(tc.gs, tc.caps))
	}
}

// TestAssign2HeteroMatchesReference: AssignCapacities (the §VIII
// heterogeneous case) shares the fast path; over random capacities its
// answer must still be the reference's on the same linearization.
func TestAssign2HeteroMatchesReference(t *testing.T) {
	w := core.NewWorkspace()
	var out core.Assignment
	fast := 0
	base := rng.New(5301)
	for trial := 0; trial < 30; trial++ {
		r := base.Split(uint64(trial))
		m := 1 + r.Intn(16)
		caps := make([]float64, m)
		total, maxCap := 0.0, 0.0
		for j := range caps {
			caps[j] = r.Uniform(50, 1000)
			total += caps[j]
			maxCap = max(maxCap, caps[j])
		}
		n := 50 + r.Intn(2000)
		threads := make([]utility.Func, n)
		for i := range threads {
			f, err := gen.Thread(gen.PowerLaw{Alpha: 2, Xmin: 1}, maxCap, r)
			if err != nil {
				t.Fatal(err)
			}
			threads[i] = f
		}
		so := w.AssignCapacities(threads, caps, maxCap, total, &out)
		gs := make([]core.Linearized, n)
		for i := range gs {
			gs[i] = core.Linearized{UHat: so.Value[i], CHat: so.Alloc[i], C: maxCap}
		}
		if w.Assign2PricedOut(gs, caps) {
			fast++
		}
		assertBitsEqual(t, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m), out, core.Assign2Reference(gs, caps))
	}
	if fast == 0 {
		t.Fatal("no heterogeneous instance took the fast path")
	}
}
