// Package instio is the instance wire format: the JSON that aaserve's
// /solve and /solve/batch, aarelay's cache fingerprinting, and the
// command-line tools (aagen, aasolve) read and write. Utility functions
// are encoded as type-tagged objects covering every closed-form family
// plus piecewise-linear and PCHIP-sampled curves. Encode writes it with
// encoding/json; Decode and Decoder read it with a single-pass byte
// scanner that builds each utility as its object closes, so decoding
// costs little more than parsing the numbers, and ScanInstance runs the
// same scanner without building anything. Answers travel as
// AssignmentJSON through one reflection-free codec, AppendAssignment
// and DecodeAssignment.
package instio

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"aa/internal/core"
	"aa/internal/utility"
)

// threadJSON is the tagged wire form of one utility function.
type threadJSON struct {
	Kind  string    `json:"kind"`
	Slope float64   `json:"slope,omitempty"`
	Knee  float64   `json:"knee,omitempty"`
	Scale float64   `json:"scale,omitempty"`
	Beta  float64   `json:"beta,omitempty"`
	Shift float64   `json:"shift,omitempty"`
	K     float64   `json:"k,omitempty"`
	Xs    []float64 `json:"xs,omitempty"`
	Ys    []float64 `json:"ys,omitempty"`
}

// instanceJSON is the wire form of an instance.
type instanceJSON struct {
	M       int          `json:"m"`
	C       float64      `json:"c"`
	Threads []threadJSON `json:"threads"`
}

// AssignmentJSON is the wire form of a solution: aaserve's /solve answer
// and aasolve's -json output. AppendAssignment and DecodeAssignment are
// its codec; the tags keep encoding/json readers of it working.
type AssignmentJSON struct {
	Server  []int     `json:"server"`
	Alloc   []float64 `json:"alloc"`
	Utility float64   `json:"utility"`
	Bound   float64   `json:"superOptimalBound"`
}

// encodeThread converts a utility.Func into its wire form.
func encodeThread(f utility.Func) (threadJSON, error) {
	switch v := f.(type) {
	case utility.Linear:
		return threadJSON{Kind: wireKinds[binLinear], Slope: v.Slope}, nil
	case utility.CappedLinear:
		return threadJSON{Kind: wireKinds[binCappedLinear], Slope: v.Slope, Knee: v.Knee}, nil
	case utility.Power:
		return threadJSON{Kind: wireKinds[binPower], Scale: v.Scale, Beta: v.Beta}, nil
	case utility.Log:
		return threadJSON{Kind: wireKinds[binLog], Scale: v.Scale, Shift: v.Shift}, nil
	case utility.SatExp:
		return threadJSON{Kind: wireKinds[binSatExp], Scale: v.Scale, K: v.K}, nil
	case utility.Saturating:
		return threadJSON{Kind: wireKinds[binSaturating], Scale: v.Scale, K: v.K}, nil
	case *utility.PiecewiseLinear:
		xs, ys := knotsOf(v)
		return threadJSON{Kind: wireKinds[binPiecewise], Xs: xs, Ys: ys}, nil
	case *utility.Sampled:
		xs, ys := sampledKnots(v)
		return threadJSON{Kind: wireKinds[binSampled], Xs: xs, Ys: ys}, nil
	default:
		return threadJSON{}, fmt.Errorf("instio: cannot encode utility type %T", f)
	}
}

// knotsOf and sampledKnots return the exact defining knots of the knot
// families, so the wire form round-trips the curve bit-exactly: the
// decoder rebuilds the same interpolant from the same knots.
func knotsOf(p *utility.PiecewiseLinear) ([]float64, []float64) { return p.Knots() }

func sampledKnots(s *utility.Sampled) ([]float64, []float64) { return s.Knots() }

// Binary family tags for AppendThreadBinary. One distinct byte per wire
// family; never reorder or reuse values — the tags are part of the
// stable encoding the solve cache hashes.
const (
	binLinear byte = iota + 1
	binCappedLinear
	binPower
	binLog
	binSatExp
	binSaturating
	binPiecewise
	binSampled
)

// wireKinds holds each family's "kind" on the JSON wire, by binary tag.
var wireKinds = [...]string{
	binLinear:       "linear",
	binCappedLinear: "cappedLinear",
	binPower:        "power",
	binLog:          "log",
	binSatExp:       "satexp",
	binSaturating:   "saturating",
	binPiecewise:    "piecewise",
	binSampled:      "sampled",
}

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

// AppendThreadBinary appends the canonical binary encoding of one
// utility function to dst — the stable per-thread identity the solve
// cache hashes instances with. The layout is the cap's exact float64
// bits (the JSON wire form drops per-thread caps — Decode re-derives
// them from the instance C — but in memory two utilities can differ
// only in cap and must not share an identity), a one-byte family tag,
// then the family's parameters as float64 bits; the knot families write
// a knot count followed by the exact xs and ys bits. Every field is
// fixed-width little-endian, so the encoding is unambiguous and stable
// across processes and Go releases. It fails only on a utility type
// outside the wire vocabulary; such instances are uncacheable.
func AppendThreadBinary(dst []byte, f utility.Func) ([]byte, error) {
	dst = appendF64(dst, f.Cap())
	switch v := f.(type) {
	case utility.Linear:
		return appendF64(append(dst, binLinear), v.Slope), nil
	case utility.CappedLinear:
		return appendF64(appendF64(append(dst, binCappedLinear), v.Slope), v.Knee), nil
	case utility.Power:
		return appendF64(appendF64(append(dst, binPower), v.Scale), v.Beta), nil
	case utility.Log:
		return appendF64(appendF64(append(dst, binLog), v.Scale), v.Shift), nil
	case utility.SatExp:
		return appendF64(appendF64(append(dst, binSatExp), v.Scale), v.K), nil
	case utility.Saturating:
		return appendF64(appendF64(append(dst, binSaturating), v.Scale), v.K), nil
	case *utility.PiecewiseLinear:
		return appendKnots(append(dst, binPiecewise), v), nil
	case *utility.Sampled:
		return appendKnots(append(dst, binSampled), v), nil
	default:
		return nil, fmt.Errorf("instio: cannot encode utility type %T", f)
	}
}

// knotCurve is the per-knot access the knot families share; using it
// instead of Knots() keeps the encoder allocation-free, which matters
// because the solve cache encodes every thread on every lookup.
type knotCurve interface {
	KnotCount() int
	Knot(i int) (x, y float64)
}

func appendKnots(dst []byte, c knotCurve) []byte {
	n := c.KnotCount()
	dst = appendU64(dst, uint64(n))
	for i := 0; i < n; i++ {
		x, _ := c.Knot(i)
		dst = appendF64(dst, x)
	}
	for i := 0; i < n; i++ {
		_, y := c.Knot(i)
		dst = appendF64(dst, y)
	}
	return dst
}

// Encode writes an instance as JSON.
func Encode(w io.Writer, in *core.Instance) error {
	ij := instanceJSON{M: in.M, C: in.C, Threads: make([]threadJSON, len(in.Threads))}
	for i, f := range in.Threads {
		tj, err := encodeThread(f)
		if err != nil {
			return fmt.Errorf("thread %d: %w", i, err)
		}
		ij.Threads[i] = tj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ij)
}
