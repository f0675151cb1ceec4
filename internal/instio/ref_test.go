package instio

import (
	"bytes"
	"encoding/json"
	"fmt"

	"aa/internal/core"
	"aa/internal/utility"
)

// refDecode is the test oracle for Decode: the reflection decoder the
// service used before the byte scanner, kept verbatim. encoding/json
// decodes the first JSON value into the wire structs (keys matched
// case-insensitively, unknown fields skipped, null as absent, later
// duplicates overwriting earlier ones, trailing bytes ignored), then each
// thread is built and the instance validated.
func refDecode(data []byte) (*core.Instance, error) {
	var ij instanceJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ij); err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	in := &core.Instance{M: ij.M, C: ij.C, Threads: make([]utility.Func, len(ij.Threads))}
	for i, tj := range ij.Threads {
		f, err := refDecodeThread(tj, ij.C)
		if err != nil {
			return nil, fmt.Errorf("instio: thread %d: %w", i, err)
		}
		in.Threads[i] = f
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// refDecodeThread converts a wire thread back into a utility over
// capacity c.
func refDecodeThread(tj threadJSON, c float64) (utility.Func, error) {
	switch tj.Kind {
	case "linear":
		return utility.Linear{Slope: tj.Slope, C: c}, nil
	case "cappedLinear":
		return utility.CappedLinear{Slope: tj.Slope, Knee: tj.Knee, C: c}, nil
	case "power":
		return utility.Power{Scale: tj.Scale, Beta: tj.Beta, C: c}, nil
	case "log":
		return utility.Log{Scale: tj.Scale, Shift: tj.Shift, C: c}, nil
	case "satexp":
		return utility.SatExp{Scale: tj.Scale, K: tj.K, C: c}, nil
	case "saturating":
		return utility.Saturating{Scale: tj.Scale, K: tj.K, C: c}, nil
	case "piecewise":
		return utility.NewPiecewiseLinear(tj.Xs, tj.Ys)
	case "sampled":
		return utility.NewSampled(tj.Xs, tj.Ys)
	default:
		return nil, fmt.Errorf("instio: unknown utility kind %q", tj.Kind)
	}
}

// sameInstance reports how a and b differ, or "" when M, the bits of C
// and every thread's AppendThreadBinary bytes are identical.
func sameInstance(a, b *core.Instance) string {
	if a.M != b.M {
		return fmt.Sprintf("m %d vs %d", a.M, b.M)
	}
	if !sameBits(a.C, b.C) {
		return fmt.Sprintf("c %v vs %v", a.C, b.C)
	}
	if len(a.Threads) != len(b.Threads) {
		return fmt.Sprintf("%d vs %d threads", len(a.Threads), len(b.Threads))
	}
	for i := range a.Threads {
		ka, errA := AppendThreadBinary(nil, a.Threads[i])
		kb, errB := AppendThreadBinary(nil, b.Threads[i])
		if errA != nil || errB != nil {
			return fmt.Sprintf("thread %d not encodable: %v / %v", i, errA, errB)
		}
		if !bytes.Equal(ka, kb) {
			return fmt.Sprintf("thread %d: %T %x vs %T %x", i, a.Threads[i], ka, b.Threads[i], kb)
		}
	}
	return ""
}
