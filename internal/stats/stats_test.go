package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample stddev with n−1 denominator: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty: %+v", s)
	}
	s := Summarize([]float64{42})
	if s.Mean != 42 || s.Stddev != 0 || s.Stderr() != 0 {
		t.Errorf("single: %+v", s)
	}
}

func TestStderrAndCI(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	wantSE := s.Stddev / math.Sqrt(10)
	if math.Abs(s.Stderr()-wantSE) > 1e-12 {
		t.Errorf("Stderr = %v, want %v", s.Stderr(), wantSE)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestRatioOfMeans(t *testing.T) {
	if got := RatioOfMeans([]float64{2, 4}, []float64{1, 1}); got != 3 {
		t.Errorf("RatioOfMeans = %v, want 3", got)
	}
	if got := RatioOfMeans([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("zero denominator = %v, want 0", got)
	}
}

// Property: Mean lies within [Min, Max]; stddev is nonnegative.
func TestSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological draws
			}
		}
		s := Summarize(xs)
		if s.N == 0 {
			return true
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Stddev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
