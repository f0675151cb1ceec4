package instio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// codecValues are the floats whose encoding/json form has edge cases:
// signed zero, the exponent-form cutoffs 1e-6 and 1e21 on both sides,
// a one-digit negative exponent, and the extremes of float64.
var codecValues = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.99e-7, 1e-7, 1e-9, 1e20, 1e21,
	-1e21, 123456789012345680000, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 1.0000000000000002, 1e-100}

func codecCases() []AssignmentJSON {
	out := []AssignmentJSON{
		{},
		{Server: []int{}, Alloc: []float64{}},
		{Server: []int{}, Alloc: nil, Utility: 2},
		{Server: []int{0, -1, math.MaxInt64, math.MinInt64}, Alloc: []float64{3}, Utility: 1.5, Bound: 1.75},
	}
	for _, v := range codecValues {
		out = append(out, AssignmentJSON{Server: []int{1}, Alloc: []float64{v, -v}, Utility: v, Bound: -v})
	}
	out = append(out, AssignmentJSON{Server: []int{0, 1, 2}, Alloc: codecValues, Utility: 12.25, Bound: 13})
	return out
}

// checkCodec: AppendAssignment writes encoding/json's bytes in both
// layouts aaserve uses, and DecodeAssignment reads them back to a.
func checkCodec(t *testing.T, a AssignmentJSON) {
	t.Helper()
	var enc bytes.Buffer
	e := json.NewEncoder(&enc)
	e.SetIndent("", "  ")
	if err := e.Encode(a); err != nil {
		t.Fatal(err)
	}
	got, err := AppendAssignment([]byte("x"), a, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("x"), enc.Bytes()...); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("%+v:\nappended %q\nencoder  %q", a, append(got, '\n'), want)
	}
	marshaled, err := json.MarshalIndent(a, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if el, _ := AppendAssignment(nil, a, "  "); !bytes.Equal(el, marshaled) {
		t.Fatalf("%+v:\nappended %q\nmarshal  %q", a, el, marshaled)
	}
	back, err := DecodeAssignment(got[1:])
	if err != nil {
		t.Fatalf("%+v: decoding its own encoding: %v\n%s", a, err, got[1:])
	}
	if !sameAssignment(back, a) {
		t.Fatalf("round trip changed %+v into %+v", a, back)
	}
}

// sameAssignment compares bit for bit, telling nil from empty slices
// and -0 from 0.
func sameAssignment(a, b AssignmentJSON) bool {
	if (a.Server == nil) != (b.Server == nil) || (a.Alloc == nil) != (b.Alloc == nil) ||
		!reflect.DeepEqual(a.Server, b.Server) || len(a.Alloc) != len(b.Alloc) ||
		!sameBits(a.Utility, b.Utility) || !sameBits(a.Bound, b.Bound) {
		return false
	}
	for i := range a.Alloc {
		if !sameBits(a.Alloc[i], b.Alloc[i]) {
			return false
		}
	}
	return true
}

func TestAssignmentCodecMatchesEncodingJSON(t *testing.T) {
	for _, a := range codecCases() {
		checkCodec(t, a)
	}
}

func TestAppendAssignmentRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		a    AssignmentJSON
		path string
	}{
		{AssignmentJSON{Server: []int{0}, Alloc: []float64{1}, Utility: math.Inf(1)}, "utility"},
		{AssignmentJSON{Server: []int{0}, Alloc: []float64{1}, Bound: math.NaN()}, "superOptimalBound"},
		{AssignmentJSON{Server: []int{0, 0}, Alloc: []float64{1, math.Inf(-1)}}, "alloc[1]"},
	} {
		got, err := AppendAssignment([]byte("kept"), tc.a, "")
		var e *Error
		if !errors.Is(err, ErrNonFinite) || !errors.As(err, &e) || e.Path != tc.path {
			t.Fatalf("%+v: error %v, want ErrNonFinite at %s", tc.a, err, tc.path)
		}
		if string(got) != "kept" {
			t.Fatalf("%+v: dst changed to %q on failure", tc.a, got)
		}
		if _, err := json.Marshal(tc.a); err == nil {
			t.Fatalf("%+v: encoding/json encodes it, so the codecs disagree", tc.a)
		}
	}
}

// unmarshalAgrees checks DecodeAssignment against json.Unmarshal on
// data: both accept or both reject, and accepted values are identical.
func unmarshalAgrees(t *testing.T, data []byte) {
	t.Helper()
	var want AssignmentJSON
	wantErr := json.Unmarshal(data, &want)
	got, err := DecodeAssignment(data)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("DecodeAssignment error %v, json.Unmarshal error %v, on\n%q", err, wantErr, data)
	case err != nil:
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("error %v (%T) is not an *Error", err, err)
		}
	case !sameAssignment(got, want):
		t.Fatalf("DecodeAssignment %+v, json.Unmarshal %+v, on\n%q", got, want, data)
	}
}

func TestDecodeAssignmentMatchesUnmarshal(t *testing.T) {
	for _, s := range []string{
		`{"server":[0,1],"alloc":[1.5,2],"utility":3,"superOptimalBound":4}`,
		`{"SERVER":[1],"Alloc":[1e2],"UTILITY":-0,"superoptimalbound":5e-324,"x":{"y":[null,"z"]}}`,
		// Repeats overwrite; null leaves a number and nils a slice.
		`{"server":[1,2,3],"server":[4],"utility":1,"utility":null,"alloc":[1],"alloc":null}`,
		`{"server":null,"alloc":[]}`, `null`, ` {} `, `{"server":[null,2],"alloc":[null]}`,
		// Rejected by both.
		``, `[]`, `{"server":[1.5]}`, `{"server":[1e2]}`, `{"server":[9223372036854775808]}`,
		`{"alloc":[1e400]}`, `{"utility":"1"}`, `{"server":{}}`, `{"alloc":[1,]}`, `{} x`,
		`{"server":[01]}`, `{"utility":-}`, `{"utility":1`, `{"alloc":tru}`,
		// Accepted by both.
		`{"server":[-0,123456789012345678]}`, `{"server":[-9223372036854775808]}`,
	} {
		unmarshalAgrees(t, []byte(s))
	}
}

// FuzzAssignmentCodec: on any input, DecodeAssignment accepts exactly
// what json.Unmarshal accepts, with identical values, and every
// accepted value re-encodes to encoding/json's bytes and decodes back.
// The same bytes also seed an assignment built from raw float bits,
// which reaches subnormals, extremes and non-finite values the JSON
// inputs cannot.
func FuzzAssignmentCodec(f *testing.F) {
	for _, a := range codecCases() {
		b, err := AppendAssignment(nil, a, "")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, v := range append(codecValues, math.Inf(1), math.NaN()) {
		f.Add(binary.LittleEndian.AppendUint64([]byte{3}, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		unmarshalAgrees(t, data)
		if a, err := DecodeAssignment(data); err == nil {
			checkCodec(t, a)
		}
		a := rawAssignment(data)
		if _, err := AppendAssignment(nil, a, ""); err != nil {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%+v: %v", a, err)
			}
			if _, jerr := json.Marshal(a); jerr == nil {
				t.Fatalf("%+v: AppendAssignment fails (%v) but encoding/json does not", a, err)
			}
			return
		}
		checkCodec(t, a)
	})
}

// rawAssignment reads data as an assignment: a flags byte (bit 0: nil
// server, bit 1: nil alloc), then 8-byte words, the first two utility
// and bound, the rest alloc values, each with its low bits as a server.
func rawAssignment(data []byte) AssignmentJSON {
	var a AssignmentJSON
	if len(data) == 0 {
		return a
	}
	flags := data[0]
	data = data[1:]
	if flags&1 == 0 {
		a.Server = []int{}
	}
	if flags&2 == 0 {
		a.Alloc = []float64{}
	}
	for k := 0; len(data) >= 8; k++ {
		w := binary.LittleEndian.Uint64(data)
		data = data[8:]
		v := math.Float64frombits(w)
		switch k {
		case 0:
			a.Utility = v
		case 1:
			a.Bound = v
		default:
			if a.Alloc != nil {
				a.Alloc = append(a.Alloc, v)
			}
			if a.Server != nil {
				a.Server = append(a.Server, int(int32(w)))
			}
		}
	}
	return a
}
