package cachesim

import (
	"fmt"

	"aa/internal/utility"
)

// Profile is a thread's measured hit-rate curve: HitRate[w] is the hit
// rate with w ways, for w = 0..len(HitRate)-1. By the LRU stack
// (inclusion) property the curve is nondecreasing in w.
type Profile struct {
	HitRate  []float64
	Accesses int
}

// ProfileThread measures a thread's hit rate at every way count
// 0..cfg.Ways by running its trace against fresh partitions — the
// offline profiling step the paper assumes ("utility functions can be
// determined by measuring the performance of individual threads").
func ProfileThread(cfg Config, trace []uint64) (Profile, error) {
	if len(trace) == 0 {
		return Profile{}, ErrEmptyTrace
	}
	p := Profile{
		HitRate:  make([]float64, cfg.Ways+1),
		Accesses: len(trace),
	}
	for w := 0; w <= cfg.Ways; w++ {
		hits, accesses, err := SimulateHits(cfg, w, trace)
		if err != nil {
			return Profile{}, err
		}
		p.HitRate[w] = float64(hits) / float64(accesses)
	}
	return p, nil
}

// ConcaveEnvelope returns the upper concave envelope of the curve: the
// smallest concave nondecreasing curve dominating it. Smooth working-set
// curves are already concave and unchanged; cliff-shaped curves (e.g.
// sequential loops) get bridged by their chords. AA's model requires
// concavity, and the envelope is the standard surrogate: any allocation
// chosen on the envelope can be rounded to an envelope vertex, where
// envelope and true curve agree.
func (p Profile) ConcaveEnvelope() []float64 {
	ys := p.HitRate
	n := len(ys)
	if n <= 2 {
		return append([]float64(nil), ys...)
	}
	// Upper hull by a monotone stack over points (w, ys[w]).
	type pt struct{ x, y float64 }
	hull := make([]pt, 0, n)
	for w := 0; w < n; w++ {
		q := pt{float64(w), ys[w]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it lies below chord a—q (keeps hull concave).
			if (b.y-a.y)*(q.x-a.x) <= (q.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, q)
	}
	// Interpolate the hull back onto integer way counts.
	out := make([]float64, n)
	seg := 0
	for w := 0; w < n; w++ {
		x := float64(w)
		for seg+1 < len(hull) && hull[seg+1].x < x {
			seg++
		}
		if seg+1 >= len(hull) || hull[seg].x == x {
			out[w] = hull[min(seg, len(hull)-1)].y
			continue
		}
		a, b := hull[seg], hull[seg+1]
		t := (x - a.x) / (b.x - a.x)
		out[w] = a.y + t*(b.y-a.y)
	}
	// The envelope of a monotone curve is monotone; guard float noise.
	for w := 1; w < n; w++ {
		if out[w] < out[w-1] {
			out[w] = out[w-1]
		}
	}
	return out
}

// ThroughputModel converts hit rates into a throughput (accesses per
// cycle) using a simple in-order memory model: a hit costs HitCycles, a
// miss costs HitCycles + MissPenalty.
type ThroughputModel struct {
	HitCycles   float64 // cycles per hit (>= 1)
	MissPenalty float64 // extra cycles per miss
	Weight      float64 // relative importance/instruction rate of the thread
}

// DefaultModel is a typical LLC model: 1-cycle hit, 40-cycle miss
// penalty, unit weight.
var DefaultModel = ThroughputModel{HitCycles: 1, MissPenalty: 40, Weight: 1}

// Throughput returns Weight · accesses-per-cycle at the given hit rate.
func (m ThroughputModel) Throughput(hitRate float64) float64 {
	cycles := m.HitCycles + (1-hitRate)*m.MissPenalty
	return m.Weight / cycles
}

// Utility converts a profile into a concave AA utility over the way
// domain [0, ways]: the concave envelope of the throughput-vs-ways
// curve, linearly interpolated between integer way counts. The returned
// function's Cap is float64(len(HitRate)-1).
func (p Profile) Utility(m ThroughputModel) (utility.Func, error) {
	n := len(p.HitRate)
	if n < 2 {
		return nil, fmt.Errorf("cachesim: profile has %d points", n)
	}
	raw := make([]float64, n)
	for w := 0; w < n; w++ {
		raw[w] = m.Throughput(p.HitRate[w])
	}
	// Throughput is increasing in hit rate, so monotonicity carries
	// over; concavity does not (throughput is convex in hit rate), so
	// take the envelope in throughput space.
	tp := Profile{HitRate: raw}
	env := tp.ConcaveEnvelope()
	xs := make([]float64, n)
	for w := range xs {
		xs[w] = float64(w)
	}
	return utility.NewPiecewiseLinear(xs, env)
}
