package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/instio"
)

// verifyAssignment checks one wire response against the instance it
// answers: the assignment is feasible (check.Feasible), its utility F
// satisfies α·F̂ ≤ F ≤ F̂(1+ε) against a freshly computed super-optimal
// bound F̂, the reported utility is F, and the reported bound is not
// below F̂ (a warm-started response reports its own conservative,
// larger bound). It returns the response's F/F̂ as reported.
func verifyAssignment(in *core.Instance, body []byte) (float64, error) {
	var a instio.AssignmentJSON
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, fmt.Errorf("response is not an assignment: %v", err)
	}
	if len(a.Server) != len(in.Threads) || len(a.Alloc) != len(in.Threads) {
		return 0, fmt.Errorf("response has %d/%d entries for %d threads", len(a.Server), len(a.Alloc), len(in.Threads))
	}
	asg := core.Assignment{Server: a.Server, Alloc: a.Alloc}
	if err := check.Feasible(in, asg, check.DefaultEps); err != nil {
		return 0, err
	}
	rep := check.Ratio(in, asg)
	if err := rep.CheckAlpha(check.DefaultRatioEps); err != nil {
		return 0, err
	}
	if math.Abs(a.Utility-rep.F) > 1e-9*math.Max(1, math.Abs(rep.F)) {
		return 0, fmt.Errorf("reported utility %v, assignment's utility %v", a.Utility, rep.F)
	}
	if a.Bound < rep.FHat*(1-1e-9) {
		return 0, fmt.Errorf("reported bound %v below the super-optimal bound %v", a.Bound, rep.FHat)
	}
	return a.Utility / a.Bound, nil
}

// compactEqual compares two JSON documents modulo whitespace.
func compactEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// parallel runs f(0), ..., f(n-1) on one goroutine per CPU and returns
// when all calls have. Input generation and output checks run outside
// the timed windows, where the CPUs are otherwise idle.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
