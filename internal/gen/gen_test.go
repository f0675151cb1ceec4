package gen

import (
	"math"
	"testing"

	"aa/internal/rng"
)

func TestDistributionsNonnegative(t *testing.T) {
	r := rng.New(1)
	dists := []Dist{
		DefaultUniform,
		DefaultNormal,
		PowerLaw{Alpha: 2, Xmin: 1},
		Discrete{L: 1, Gamma: 0.85, Theta: 5},
	}
	for _, d := range dists {
		for i := 0; i < 1000; i++ {
			if v := d.Sample(r); v < 0 {
				t.Errorf("%s produced negative value %v", d.Name(), v)
			}
		}
	}
}

func TestDistNames(t *testing.T) {
	cases := []struct {
		d    Dist
		want string
	}{
		{Uniform{0, 1}, "uniform[0,1)"},
		{Normal{1, 1}, "normal(1,1)+"},
		{PowerLaw{Alpha: 2, Xmin: 1}, "powerlaw(α=2)"},
		{Discrete{L: 1, Gamma: 0.85, Theta: 5}, "discrete(γ=0.85,θ=5)"},
	}
	for _, tc := range cases {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestDiscreteValues(t *testing.T) {
	r := rng.New(2)
	d := Discrete{L: 2, Gamma: 0.5, Theta: 3}
	for i := 0; i < 100; i++ {
		v := d.Sample(r)
		if v != 2 && v != 6 {
			t.Fatalf("discrete sample %v not in {2, 6}", v)
		}
	}
}

func TestThreadShape(t *testing.T) {
	r := rng.New(3)
	const c = 1000.0
	for trial := 0; trial < 200; trial++ {
		f, err := Thread(DefaultUniform, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if f.Cap() != c {
			t.Fatalf("Cap() = %v, want %v", f.Cap(), c)
		}
		if v := f.Value(0); v != 0 {
			t.Fatalf("f(0) = %v, want 0", v)
		}
		// Nondecreasing on a coarse grid.
		prev := 0.0
		for x := 0.0; x <= c; x += 20 {
			y := f.Value(x)
			if y < prev-1e-9 {
				t.Fatalf("trial %d: f decreases at x=%v", trial, x)
			}
			prev = y
		}
		// Midpoint value at least the endpoint-half: f(C) = v+w <= 2v = 2 f(C/2).
		if f.Value(c) > 2*f.Value(c/2)+1e-9 {
			t.Fatalf("w > v construction violated: f(C)=%v > 2·f(C/2)=%v",
				f.Value(c), 2*f.Value(c/2))
		}
	}
}

func TestThreadNearConcave(t *testing.T) {
	// PCHIP through concave data should produce (nearly) concave curves;
	// verify secant slopes never increase materially.
	r := rng.New(4)
	const c = 1000.0
	for trial := 0; trial < 100; trial++ {
		f, err := Thread(PowerLaw{Alpha: 2, Xmin: 1}, c, r)
		if err != nil {
			t.Fatal(err)
		}
		scale := f.Value(c)
		if scale == 0 {
			continue
		}
		prevSlope := math.Inf(1)
		prev := 0.0
		for x := 10.0; x <= c; x += 10 {
			y := f.Value(x)
			slope := (y - prev) / 10
			if slope > prevSlope+1e-6*scale {
				t.Fatalf("trial %d: slope increases at x=%v (%v -> %v)", trial, x, prevSlope, slope)
			}
			prevSlope, prev = slope, y
		}
	}
}

func TestInstanceGeneration(t *testing.T) {
	r := rng.New(5)
	in, err := Instance(DefaultNormal, 8, 1000, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.N() != 40 || in.M != 8 || in.C != 1000 {
		t.Errorf("instance shape (n=%d m=%d C=%v)", in.N(), in.M, in.C)
	}
}

func TestInstanceDeterministicPerSeed(t *testing.T) {
	a, err := Instance(DefaultUniform, 4, 100, 10, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instance(DefaultUniform, 4, 100, 10, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Threads {
		for x := 0.0; x <= 100; x += 10 {
			if a.Threads[i].Value(x) != b.Threads[i].Value(x) {
				t.Fatalf("thread %d differs at x=%v across identical seeds", i, x)
			}
		}
	}
}
