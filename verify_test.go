package aa

import (
	"context"
	"errors"
	"testing"

	"aa/internal/check"
)

func TestVerifyFacade(t *testing.T) {
	in := exampleInstance()
	sol := Solve(in)
	if err := Verify(in, sol, 0); err != nil {
		t.Fatalf("Verify rejected Solve output: %v", err)
	}
	bad := sol
	bad.Alloc = append([]float64(nil), sol.Alloc...)
	bad.Alloc[0] = -5
	if err := Verify(in, bad, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestVerifyRatioFacade(t *testing.T) {
	in := exampleInstance()
	rep := VerifyRatio(in, Solve(in))
	if rep.Ratio < Alpha || rep.Ratio > 1+1e-9 {
		t.Errorf("Solve ratio %v outside [α, 1]", rep.Ratio)
	}
	if err := rep.CheckAlpha(0); err != nil {
		t.Errorf("CheckAlpha rejected Solve: %v", err)
	}
	low := CheckReport{F: 1, FHat: 100, Ratio: 0.01}
	if err := low.CheckAlpha(0); !errors.Is(err, ErrRatioViolation) {
		t.Errorf("got %v, want ErrRatioViolation", err)
	}
}

func TestCheckedSolverPoolFacade(t *testing.T) {
	p := NewSolverPool(SolverPoolOptions{Workers: 2, Check: true})
	defer p.Close()
	in := exampleInstance()
	c0, v0 := check.Totals()
	sol, err := p.Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("checked pool solve failed: %v", err)
	}
	if sol.Utility(in) <= 0 {
		t.Error("zero utility from checked solve")
	}
	c1, v1 := check.Totals()
	if c1 == c0 {
		t.Error("SolverPoolOptions.Check did not run any checks")
	}
	if v1 != v0 {
		t.Errorf("clean solve grew aa_check_violations_total by %d", v1-v0)
	}
}

// TestEnableChecksCoversSolveBatch: the process-wide switch reaches
// SolveBatch and a SolverPool built without the Check option.
func TestEnableChecksCoversSolveBatch(t *testing.T) {
	EnableChecks()
	defer DisableChecks()
	c0, _ := check.Totals()
	out, err := SolveBatch(context.Background(), []*Instance{exampleInstance(), exampleInstance()})
	if err != nil {
		t.Fatalf("checked SolveBatch failed: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d assignments, want 2", len(out))
	}
	p := NewSolverPool(SolverPoolOptions{Workers: 1})
	defer p.Close()
	if _, err := p.SolveBatch(context.Background(), []*Instance{exampleInstance()}); err != nil {
		t.Fatalf("pool SolveBatch failed under EnableChecks: %v", err)
	}
	if c1, _ := check.Totals(); c1 < c0+3 {
		t.Errorf("EnableChecks ran %d checks for 3 solves", c1-c0)
	}
}
