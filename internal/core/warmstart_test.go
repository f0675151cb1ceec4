package core_test

// Tests for the warm-start repair path (SuperOptimalWarm / Assign2Warm)
// across the full figure workload corpus: the repaired assignment must
// stay feasible and hold the α-ratio bound against its own warm F̂ — the
// exact acceptance contract the engine's cache middleware enforces
// before serving a warm result.

import (
	"math"
	"testing"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

// perturb removes the last k threads of in and appends k fresh draws
// from the same distribution, modeling a churn step: most threads carry
// over, a few change. It returns the new instance and the index of the
// first changed slot.
func perturb(t *testing.T, in *core.Instance, dist gen.Dist, k int, r *rng.Rand) *core.Instance {
	t.Helper()
	n := in.N()
	if k > n {
		k = n
	}
	threads := make([]utility.Func, n)
	copy(threads, in.Threads)
	for i := n - k; i < n; i++ {
		f, err := gen.Thread(dist, in.C, r)
		if err != nil {
			t.Fatalf("gen.Thread: %v", err)
		}
		threads[i] = f
	}
	return &core.Instance{M: in.M, C: in.C, Threads: threads}
}

// seedFrom builds a WarmSeed for cur from a cold solve of prev: threads
// [0, n-k) carry their cached placement, the last k slots are marked
// uncovered for the repair pass.
func seedFrom(prev core.Assignment, lambda float64, n, k int) core.WarmSeed {
	seed := core.WarmSeed{
		Lambda: lambda,
		Server: make([]int, n),
		Alloc:  make([]float64, n),
	}
	for i := range seed.Server {
		seed.Server[i] = -1
	}
	for i := 0; i < n-k && i < len(prev.Server); i++ {
		seed.Server[i] = prev.Server[i]
		seed.Alloc[i] = prev.Alloc[i]
	}
	return seed
}

func TestSuperOptimalWarmMatchesColdBound(t *testing.T) {
	base := rng.New(4040)
	for wi, wl := range check.FigureWorkloads() {
		r := base.Split(uint64(wi))
		in, err := gen.Instance(wl.Dist, 6, 100, 80, r)
		if err != nil {
			t.Fatalf("%s: gen.Instance: %v", wl.Name, err)
		}
		cold := core.SuperOptimal(in)
		w := core.GetWorkspace()
		warm := w.SuperOptimalWarm(in, cold.Lambda, nil)
		tol := 1e-6 * (1 + math.Abs(cold.Total))
		if math.Abs(warm.Total-cold.Total) > tol {
			t.Fatalf("%s: warm F̂ %v vs cold %v", wl.Name, warm.Total, cold.Total)
		}
		core.PutWorkspace(w)
	}
}

func TestAssign2WarmHoldsContractAcrossCorpus(t *testing.T) {
	base := rng.New(7070)
	for wi, wl := range check.FigureWorkloads() {
		// Shapes at the cache's operating point: churn of k ≤ 8 threads
		// against instances one to two orders of magnitude larger. (At
		// high churn fractions — say 4 of 40 heavy-tailed threads — the
		// repair can legitimately lose the α bound; the engine middleware
		// catches that with its probe and falls back to a cold solve,
		// covered by the engine tests.)
		for _, shape := range []struct{ m, n, k int }{
			{4, 200, 0}, {4, 200, 4}, {8, 800, 8}, {3, 300, 1}, {6, 500, 8},
		} {
			for trial := 0; trial < 3; trial++ {
				r := base.SplitPath(uint64(wi), uint64(shape.m), uint64(shape.n), uint64(trial))
				prev, err := gen.Instance(wl.Dist, shape.m, 100, shape.n, r)
				if err != nil {
					t.Fatalf("%s: gen.Instance: %v", wl.Name, err)
				}
				cur := perturb(t, prev, wl.Dist, shape.k, r)

				so := core.SuperOptimal(prev)
				cold := core.Assign2(prev)
				seed := seedFrom(cold, so.Lambda, cur.N(), shape.k)

				w := core.GetWorkspace()
				var out core.Assignment
				warmSo := w.Assign2Warm(cur, seed, &out)
				core.PutWorkspace(w)

				label := wl.Name
				if err := check.ProbeFeasible(cur, out, 0); err != nil {
					t.Fatalf("%s m=%d n=%d k=%d trial=%d: warm repair infeasible: %v",
						label, shape.m, shape.n, shape.k, trial, err)
				}
				rep := check.RatioAgainst(warmSo.Total, cur, out)
				if err := rep.ProbeAlpha(0); err != nil {
					t.Fatalf("%s m=%d n=%d k=%d trial=%d: warm repair ratio: %v (F/F̂ = %v)",
						label, shape.m, shape.n, shape.k, trial, err, rep.Ratio)
				}
			}
		}
	}
}

func TestAssign2WarmFullSeedReproducesColdPlacement(t *testing.T) {
	// With every thread covered by the seed (k = 0, same instance), the
	// repair pass has nothing to place: the output must be the seeded
	// assignment verbatim, and the warm F̂ the cold one.
	in, err := gen.Instance(gen.DefaultUniform, 5, 100, 64, rng.New(11))
	if err != nil {
		t.Fatalf("gen.Instance: %v", err)
	}
	so := core.SuperOptimal(in)
	cold := core.Assign2(in)
	seed := seedFrom(cold, so.Lambda, in.N(), 0)

	w := core.GetWorkspace()
	var out core.Assignment
	warmSo := w.Assign2Warm(in, seed, &out)
	core.PutWorkspace(w)

	for i := range cold.Server {
		if out.Server[i] != cold.Server[i] || out.Alloc[i] != cold.Alloc[i] {
			t.Fatalf("thread %d: warm (%d,%v) != cold (%d,%v)",
				i, out.Server[i], out.Alloc[i], cold.Server[i], cold.Alloc[i])
		}
	}
	tol := 1e-9 * (1 + math.Abs(so.Total))
	if math.Abs(warmSo.Total-so.Total) > tol {
		t.Fatalf("warm F̂ %v vs cold %v", warmSo.Total, so.Total)
	}
}

func TestAssign2WarmAllThreadsUncovered(t *testing.T) {
	// A seed covering nothing (every slot -1) degenerates to a plain
	// Algorithm 2 pass over all threads with only the λ-search warm. The
	// warm F̂ allocation can differ from the cold one in the last float
	// bits (the two searches stop by different criteria), so placements
	// need not match bit for bit — but the repaired assignment must hold
	// the full Algorithm 2 contract: feasible and within α of its F̂.
	in, err := gen.Instance(gen.DefaultNormal, 4, 100, 50, rng.New(23))
	if err != nil {
		t.Fatalf("gen.Instance: %v", err)
	}
	so := core.SuperOptimal(in)
	seed := seedFrom(core.Assignment{}, so.Lambda, in.N(), in.N())

	w := core.GetWorkspace()
	var out core.Assignment
	warmSo := w.Assign2Warm(in, seed, &out)
	core.PutWorkspace(w)

	if err := check.ProbeFeasible(in, out, 0); err != nil {
		t.Fatalf("warm repair with empty seed infeasible: %v", err)
	}
	if err := check.RatioAgainst(warmSo.Total, in, out).ProbeAlpha(0); err != nil {
		t.Fatalf("warm repair with empty seed ratio: %v", err)
	}
}
