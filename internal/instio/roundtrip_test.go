package instio

import (
	"bytes"
	"math"
	"testing"

	"aa/internal/core"
	"aa/internal/utility"
)

// fixtureThreads returns one representative of every wire kind the
// package can encode, all defined over capacity c.
func fixtureThreads(t *testing.T, c float64) map[string]utility.Func {
	t.Helper()
	pw, err := utility.NewPiecewiseLinear(
		[]float64{0, c / 8, c / 2, c},
		[]float64{0, 30, 70, 80},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Concave samples of sqrt-like growth, knots through Cap.
	xs := []float64{0, c / 16, c / 8, c / 4, c / 2, 3 * c / 4, c}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 12 * math.Sqrt(x)
	}
	sm, err := utility.NewSampled(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]utility.Func{
		"linear":       utility.Linear{Slope: 2.5, C: c},
		"cappedLinear": utility.CappedLinear{Slope: 1.5, Knee: c / 3, C: c},
		"power":        utility.Power{Scale: 3, Beta: 0.6, C: c},
		"log":          utility.Log{Scale: 4, Shift: c / 10, C: c},
		"satexp":       utility.SatExp{Scale: 5, K: c / 4, C: c},
		"saturating":   utility.Saturating{Scale: 6, K: c / 2, C: c},
		"piecewise":    pw,
		"sampled":      sm,
	}
}

func encodeBytes(t testing.TB, in *core.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestEncodeDecodeEncodeStable checks that one round trip reaches a
// fixed point of the wire format for every utility kind: re-encoding a
// decoded instance reproduces the same bytes. (The first encode of a
// curve kind resamples it onto the wire grid, so stability is asserted
// from the second encode on; closed forms must be byte-stable from the
// first.)
func TestEncodeDecodeEncodeStable(t *testing.T) {
	const c = 160.0
	for kind, f := range fixtureThreads(t, c) {
		t.Run(kind, func(t *testing.T) {
			in := &core.Instance{M: 1, C: c, Threads: []utility.Func{f}}
			w1 := encodeBytes(t, in)
			in2, err := Decode(bytes.NewReader(w1))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			w2 := encodeBytes(t, in2)
			in3, err := Decode(bytes.NewReader(w2))
			if err != nil {
				t.Fatalf("second decode: %v", err)
			}
			w3 := encodeBytes(t, in3)
			if !bytes.Equal(w2, w3) {
				t.Errorf("wire format not stable after one round trip:\n%s\nvs\n%s", w2, w3)
			}
			closedForm := kind != "piecewise" && kind != "sampled"
			if closedForm && !bytes.Equal(w1, w2) {
				t.Errorf("closed form re-encoded differently:\n%s\nvs\n%s", w1, w2)
			}
			// Values survive the trip everywhere, not just at knots.
			for x := 0.0; x <= c; x += c / 64 {
				a, b := f.Value(x), in2.Threads[0].Value(x)
				tol := 1e-12 * (1 + math.Abs(a))
				if !closedForm {
					tol = 1e-6 * (1 + math.Abs(a)) // grid resampling noise
				}
				if math.Abs(a-b) > tol {
					t.Fatalf("value drifted at x=%v: %v vs %v", x, a, b)
				}
			}
		})
	}
}

// TestDecodedThreadsImplementDerivInverter pins the water-filling fast
// path across serialization: every kind the wire format can carry must
// decode to a utility that still satisfies utility.DerivInverter.
// Losing the interface (e.g. by decoding Sampled into a generic
// wrapper) would silently put every deserialized instance back on the
// ~50x slower bisection path.
func TestDecodedThreadsImplementDerivInverter(t *testing.T) {
	const c = 160.0
	fixtures := fixtureThreads(t, c)
	in := &core.Instance{M: 1, C: c}
	kinds := make([]string, 0, len(fixtures))
	for kind, f := range fixtures {
		kinds = append(kinds, kind)
		in.Threads = append(in.Threads, f)
	}
	out, err := Decode(bytes.NewReader(encodeBytes(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range out.Threads {
		if _, ok := f.(utility.DerivInverter); !ok {
			t.Errorf("decoded %s (%T) lost the DerivInverter fast path", kinds[i], f)
		}
	}
}

// refInverseDeriv is the definitional answer: the largest x in
// [0, Cap()] with Deriv(x) >= lambda, found by bisection on the
// nonincreasing derivative (independent of the fast paths under test).
func refInverseDeriv(f utility.Func, lambda float64) float64 {
	c := f.Cap()
	if f.Deriv(0) < lambda {
		return 0
	}
	if f.Deriv(c) >= lambda {
		return c
	}
	lo, hi := 0.0, c
	for i := 0; i < 200 && hi-lo > 1e-12; i++ {
		mid := 0.5 * (lo + hi)
		if f.Deriv(mid) >= lambda {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestInverseDerivConsistentAfterDecode checks fast-path fidelity: for
// each decoded thread, InverseDeriv must agree with bisection on that
// same decoded curve across the useful lambda range. This is the
// property the λ-bisection allocator relies on — a decoded curve whose
// closed-form inverter disagrees with its own derivative would
// misallocate silently.
func TestInverseDerivConsistentAfterDecode(t *testing.T) {
	const c = 160.0
	for kind, f := range fixtureThreads(t, c) {
		t.Run(kind, func(t *testing.T) {
			in := &core.Instance{M: 1, C: c, Threads: []utility.Func{f}}
			out, err := Decode(bytes.NewReader(encodeBytes(t, in)))
			if err != nil {
				t.Fatal(err)
			}
			g := out.Threads[0]
			inv, ok := g.(utility.DerivInverter)
			if !ok {
				t.Fatalf("decoded %s (%T) is not a DerivInverter", kind, g)
			}
			d0 := g.Deriv(0)
			if d0 <= 0 {
				t.Fatalf("decoded %s has nonpositive initial derivative %v", kind, d0)
			}
			// Sweep lambda from above the initial slope down to near 0,
			// hitting plateaus and knot slopes in between.
			for i := 0; i <= 40; i++ {
				lambda := d0 * 1.25 * float64(40-i) / 40
				if lambda == 0 {
					lambda = 1e-9 * d0
				}
				got := inv.InverseDeriv(lambda)
				want := refInverseDeriv(g, lambda)
				if got < 0 || got > c {
					t.Fatalf("lambda=%v: InverseDeriv out of domain: %v", lambda, got)
				}
				// Piecewise-constant derivatives make the preimage a
				// plateau edge; compare the definitional property rather
				// than demanding identical x when both points satisfy it.
				if math.Abs(got-want) > 1e-6*c {
					dGot, dWant := g.Deriv(got), g.Deriv(want)
					if math.Abs(dGot-dWant) > 1e-9*(1+d0) {
						t.Errorf("lambda=%v: InverseDeriv=%v (deriv %v) vs bisection %v (deriv %v)",
							lambda, got, dGot, want, dWant)
					}
				}
			}
		})
	}
}

// TestSampledInverterSurvivesGeneratorTrip mirrors how instances reach
// the solver in practice: the workload generator emits PCHIP-sampled
// curves, aagen writes them, aasolve/aaserve read them back. The
// decoded curve's inverter must agree with its own derivative just as
// the original's does.
func TestSampledInverterSurvivesGeneratorTrip(t *testing.T) {
	const c = 1000.0
	xs := []float64{0, 50, 125, 250, 500, 750, 1000}
	ys := []float64{0, 18, 31, 47, 66, 78, 85}
	orig, err := utility.NewSampled(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{M: 1, C: c, Threads: []utility.Func{orig}}
	out, err := Decode(bytes.NewReader(encodeBytes(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := out.Threads[0].(*utility.Sampled)
	if !ok {
		t.Fatalf("sampled decoded as %T", out.Threads[0])
	}
	d0 := dec.Deriv(0)
	for i := 1; i <= 30; i++ {
		lambda := d0 * float64(i) / 30
		x := dec.InverseDeriv(lambda)
		// Definitional check on the decoded curve: Deriv(x) >= lambda
		// (within noise) and any point meaningfully right of x is below.
		if x > 0 && dec.Deriv(math.Nextafter(x, 0)) < lambda-1e-9*(1+d0) {
			t.Errorf("lambda=%v: Deriv(%v)=%v below lambda", lambda, x, dec.Deriv(x))
		}
		if x < c {
			beyond := math.Min(c, x+1e-6*c)
			if dec.Deriv(beyond) >= lambda+1e-9*(1+d0) && beyond > x {
				t.Errorf("lambda=%v: x=%v not maximal, Deriv(%v)=%v", lambda, x, beyond, dec.Deriv(beyond))
			}
		}
	}
}
