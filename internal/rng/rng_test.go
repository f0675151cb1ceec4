package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zero := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Errorf("seed 0 produced %d zero outputs of 100", zero)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split(1)
	b := parent.Split(2)
	a2 := New(7).Split(1)
	// Same (parent seed, id) must reproduce the same stream.
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("Split not deterministic")
		}
	}
	// Different ids should give different streams.
	c := New(7).Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams for different split ids overlap: %d/100", same)
	}
}

func TestSplitPathEqualsNestedSplit(t *testing.T) {
	a := New(7).SplitPath(3, 11, 2)
	b := New(7).Split(3).Split(11).Split(2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitPath diverged from nested Split")
		}
	}
	// Empty path is the identity stream.
	c := New(7).SplitPath()
	d := New(7)
	if c.Uint64() != d.Uint64() {
		t.Error("SplitPath() changed the stream")
	}
}

func TestSplitPathIndependentAcrossPaths(t *testing.T) {
	parent := New(21)
	a := parent.SplitPath(1, 2)
	b := parent.SplitPath(2, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("paths (1,2) and (2,1) overlap: %d/100", same)
	}
	// SplitPath must not advance the parent.
	if parent.Uint64() != New(21).Uint64() {
		t.Error("SplitPath advanced the parent stream")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Error("Split advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) value %d drawn %d times of 70000, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("normal mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("normal variance = %v, want ~9", variance)
	}
}

func TestPositiveNormalIsPositive(t *testing.T) {
	r := New(8)
	for i := 0; i < 10000; i++ {
		if v := r.PositiveNormal(1, 1); v <= 0 {
			t.Fatalf("PositiveNormal returned %v", v)
		}
	}
}

func TestPowerLawSupportAndTail(t *testing.T) {
	r := New(9)
	const n = 100000
	over2 := 0
	for i := 0; i < n; i++ {
		v := r.PowerLaw(2, 1)
		if v < 1 {
			t.Fatalf("PowerLaw below xmin: %v", v)
		}
		if v > 2 {
			over2++
		}
	}
	// For alpha=2, xmin=1: P(X > 2) = 1/2.
	frac := float64(over2) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P(X>2) = %v, want ~0.5", frac)
	}
}

func TestPowerLawPanics(t *testing.T) {
	for _, c := range []struct{ alpha, xmin float64 }{{1, 1}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PowerLaw(%v,%v) did not panic", c.alpha, c.xmin)
				}
			}()
			New(1).PowerLaw(c.alpha, c.xmin)
		}()
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(10)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exp(rate=2) mean = %v, want ~0.5", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(19)
	for _, mean := range []float64{0.5, 4, 25, 100} {
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("negative Poisson draw")
			}
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if v := New(1).Poisson(0); v != 0 {
		t.Errorf("Poisson(0) = %d", v)
	}
	if v := New(1).Poisson(-3); v != 0 {
		t.Errorf("Poisson(-3) = %d", v)
	}
}

func TestTwoPointFrequencies(t *testing.T) {
	r := New(11)
	const n = 100000
	lo := 0
	for i := 0; i < n; i++ {
		v := r.TwoPoint(1, 5, 0.85)
		switch v {
		case 1:
			lo++
		case 5:
		default:
			t.Fatalf("TwoPoint returned %v", v)
		}
	}
	if frac := float64(lo) / n; math.Abs(frac-0.85) > 0.01 {
		t.Errorf("P(lo) = %v, want ~0.85", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(14)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed elements: %v", xs)
	}
}

func TestZipfRange(t *testing.T) {
	r := New(15)
	z := NewZipf(1.0, 100)
	counts := make([]int, 101)
	for i := 0; i < 50000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 1 must dominate rank 100 heavily for s=1.
	if counts[1] < 10*counts[100] {
		t.Errorf("Zipf skew too weak: rank1=%d rank100=%d", counts[1], counts[100])
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(1, 0) did not panic")
		}
	}()
	NewZipf(1, 0)
}

func TestUniformRange(t *testing.T) {
	r := New(16)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Normal(0, 1)
	}
}
