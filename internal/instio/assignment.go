package instio

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"aa/internal/core"
)

// ErrNonFinite is the failure to encode a NaN or ±Inf, which JSON has
// no form for. A solve reaches one when the instance's values overflow
// float64 (a capacity and a slope both near MaxFloat64, say).
var ErrNonFinite = errors.New("non-finite number (the instance overflows float64)")

// AppendAssignment appends a to dst as JSON, byte for byte what
// json.MarshalIndent(a, prefix, "  ") returns; with prefix "" and a
// newline after it, that is what a json.Encoder with SetIndent("", "  ")
// writes. A NaN or ±Inf fails it with an *Error wrapping ErrNonFinite
// whose Path names the field, and dst comes back as it was.
func AppendAssignment(dst []byte, a AssignmentJSON, prefix string) ([]byte, error) {
	for i, v := range a.Alloc {
		if nonFinite(v) {
			return dst, nonFiniteError("alloc"+index(i), v)
		}
	}
	if nonFinite(a.Utility) {
		return dst, nonFiniteError("utility", a.Utility)
	}
	if nonFinite(a.Bound) {
		return dst, nonFiniteError("superOptimalBound", a.Bound)
	}
	dst = append(dst, '{')
	dst = appendKey(dst, prefix, "server")
	dst = appendList(dst, prefix, a.Server, func(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) })
	dst = append(dst, ',')
	dst = appendKey(dst, prefix, "alloc")
	dst = appendList(dst, prefix, a.Alloc, appendFloat)
	dst = append(dst, ',')
	dst = appendFloat(appendKey(dst, prefix, "utility"), a.Utility)
	dst = append(dst, ',')
	dst = appendFloat(appendKey(dst, prefix, "superOptimalBound"), a.Bound)
	dst = appendNewline(dst, prefix, 0)
	return append(dst, '}'), nil
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func nonFiniteError(field string, v float64) error {
	return &Error{Instance: -1, Path: field, Err: fmt.Errorf("%w: %v", ErrNonFinite, v)}
}

// appendNewline starts a line at the given indent depth.
func appendNewline(dst []byte, prefix string, depth int) []byte {
	dst = append(dst, '\n')
	dst = append(dst, prefix...)
	for ; depth > 0; depth-- {
		dst = append(dst, "  "...)
	}
	return dst
}

func appendKey(dst []byte, prefix, key string) []byte {
	dst = append(appendNewline(dst, prefix, 1), '"')
	dst = append(dst, key...)
	return append(dst, `": `...)
}

// appendList writes a field's array as encoding/json indents it: null
// for a nil slice, [] for an empty one, else one element per line.
func appendList[T any](dst []byte, prefix string, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(appendNewline(dst, prefix, 2), v)
	}
	if len(xs) > 0 {
		dst = appendNewline(dst, prefix, 1)
	}
	return append(dst, ']')
}

// appendFloat formats a finite float64 as encoding/json does: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

var assignmentKeys = [...]string{"server", "alloc", "utility", "superOptimalBound"}

// DecodeAssignment reads one assignment, which must be the whole of data
// apart from surrounding whitespace. Within the decoder's limits (values
// nested under 1000 deep, numbers under 64 KiB) it accepts exactly what
// json.Unmarshal accepts into an AssignmentJSON and returns the same
// value: keys match case-insensitively, unknown fields are skipped, null
// leaves a field as it was, a repeated key overwrites the earlier value,
// and an array field is nil for null and non-nil for [].
func DecodeAssignment(data []byte) (AssignmentJSON, error) {
	d := Decoder{buf: data, end: len(data), rerr: io.EOF}
	var a AssignmentJSON
	err := d.object(func(key []byte) error {
		f := lookup(assignmentKeys[:], key)
		var err error
		switch f {
		case 0:
			if err = startList(&d, &a.Server); err == nil && a.Server != nil {
				err = d.ints(&a.Server)
			}
		case 1:
			if err = startList(&d, &a.Alloc); err == nil && a.Alloc != nil {
				err = d.floats(&a.Alloc)
			}
		case 2:
			err = d.floatValue(&a.Utility)
		case 3:
			err = d.floatValue(&a.Bound)
		default:
			return d.skip(0)
		}
		return within(err, assignmentKeys[f])
	})
	if err == nil {
		err = d.finish()
	}
	if err != nil {
		return AssignmentJSON{}, d.located(err, -1)
	}
	return a, nil
}

// startList readies *dst for an array field the way json.Unmarshal
// does: a null is consumed and sets it to nil; otherwise it is emptied
// but non-nil, for the array to be appended to it.
func startList[T any](d *Decoder, dst *[]T) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		*dst = nil
		return d.literal("null")
	}
	if *dst == nil {
		*dst = []T{}
	}
	*dst = (*dst)[:0]
	return nil
}

// EncodeAssignment writes a solved assignment (with its utility and the
// super-optimal bound) as JSON, in AppendAssignment's layout plus a
// newline.
func EncodeAssignment(w io.Writer, in *core.Instance, a core.Assignment) error {
	buf, err := AppendAssignment(nil, AssignmentJSON{
		Server:  a.Server,
		Alloc:   a.Alloc,
		Utility: a.Utility(in),
		Bound:   core.SuperOptimal(in).Total,
	}, "")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
