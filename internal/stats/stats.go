// Package stats provides the small set of summary statistics the
// experiment harness needs to aggregate trial results: means, deviations,
// normal-approximation confidence intervals and quantiles.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary with N = 0.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(n-1))
	}
	return s
}

// Stderr returns the standard error of the mean.
func (s Summary) Stderr() float64 {
	if s.N <= 1 {
		return 0
	}
	return s.Stddev / math.Sqrt(float64(s.N))
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RatioOfMeans returns mean(num)/mean(den), the estimator the paper's
// figures use for "ratio of Algorithm 2's utility versus X": both sides
// are averaged over trials before dividing. Returns 0 when the
// denominator mean is 0.
func RatioOfMeans(num, den []float64) float64 {
	dm := Mean(den)
	if dm == 0 {
		return 0
	}
	return Mean(num) / dm
}
