package instio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/rng"
	"aa/internal/utility"
)

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func compact(t testing.TB, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// wireCorpus is the seed set shared by the differential test and both
// fuzz targets: Encode output for every utility family and for generated
// instances, indented and compact, plus hand-written requests that use
// the freedoms clients have — any key order, case-folded and escaped
// keys, unknown fields, nulls.
func wireCorpus(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(b []byte) { out = append(out, b, compact(t, b)) }

	const c = 160.0
	pw, err := utility.NewPiecewiseLinear([]float64{0, c / 8, c / 2, c}, []float64{0, 30, 70, 80})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := utility.NewSampled([]float64{0, c / 4, c / 2, c}, []float64{0, 20, 31, 40})
	if err != nil {
		t.Fatal(err)
	}
	families := []utility.Func{
		utility.Linear{Slope: 2.5, C: c},
		utility.CappedLinear{Slope: 1.5, Knee: c / 3, C: c},
		utility.Power{Scale: 3, Beta: 0.6, C: c},
		utility.Log{Scale: 4, Shift: c / 10, C: c},
		utility.SatExp{Scale: 5, K: c / 4, C: c},
		utility.Saturating{Scale: 6, K: c / 2, C: c},
		pw,
		sm,
	}
	all := &core.Instance{M: 3, C: c}
	for _, f := range families {
		add(encodeBytes(t, &core.Instance{M: 1, C: c, Threads: []utility.Func{f}}))
		all.Threads = append(all.Threads, f)
	}
	add(encodeBytes(t, all))
	for i, dist := range []gen.Dist{gen.DefaultUniform, gen.DefaultNormal, gen.PowerLaw{Alpha: 2, Xmin: 1}} {
		in, err := gen.Instance(dist, 4, 1000, 12, rng.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		add(encodeBytes(t, in))
	}
	for _, s := range []string{
		// "c" after "threads": closed forms are built once C is known.
		`{"threads":[{"kind":"linear","slope":2},{"ys":[0,1,1.5],"xs":[0,50,100],"kind":"sampled"}],"c":100,"m":2}`,
		`{"threads":[{"beta":0.5,"scale":1,"kind":"power"}],"m":1,"c":50}`,
		// Case-folded keys, including the Kelvin sign and long s, which
		// fold to k and s.
		`{"M":2,"C":100,"THREADS":[{"KIND":"linear","Slope":2},{"Kind":"satexp","ſcale":1,"` + "\u212a" + `":5}]}`,
		// Escaped keys and kind.
		`{"\u006d":2,"c":100,"threads":[{"kind":"lin\u0065ar","sl\u006fpe":2},{"kind":"log","scale":1,"shift":3}]}`,
		// Unknown fields of every JSON type, at every level.
		`{"m":2,"extra":{"a":[1,-2.5e3,{"b":null}],"s":"x\"y\\z\u00e9\ud83d\ude00"},"c":100,"t":true,"f":false,` +
			`"threads":[{"kind":"power","scale":1,"beta":0.5,"note":"hi","n":[[],{}]}],"z":0}`,
		// Nulls leave fields at their zero values.
		`{"m":2,"c":100,"threads":[{"kind":"cappedLinear","slope":2,"knee":null},{"kind":"sampled","xs":[0,5,10],"ys":[null,1,2]}],"x":null}`,
		`{"m":1,"c":100,"threads":[{"kind":"saturating","scale":null,"k":4,"xs":null}]}`,
		// Whitespace everywhere JSON allows it.
		" \t\r\n{ \"m\" : 1 ,\n\"c\":\t100 , \"threads\" : [ { \"kind\" : \"linear\" , \"slope\" : 1 } ] }\n ",
	} {
		out = append(out, []byte(s))
	}
	return out
}

// TestDecodeMatchesReference: the scanner accepts every corpus request
// the reference decoder accepts and builds bit-identical instances.
func TestDecodeMatchesReference(t *testing.T) {
	for i, data := range wireCorpus(t) {
		want, err := refDecode(data)
		if err != nil {
			t.Fatalf("corpus %d: reference rejects its own seed: %v\n%s", i, err, data)
		}
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("corpus %d: %v\n%s", i, err, data)
		}
		if diff := sameInstance(got, want); diff != "" {
			t.Fatalf("corpus %d: %s\n%s", i, diff, data)
		}
	}
}

// TestDecodeErrorPaths: every rejection names where it happened.
func TestDecodeErrorPaths(t *testing.T) {
	const head = `{"m":2,"c":100,"threads":[{"kind":"linear","slope":1},`
	for _, tc := range []struct {
		name, body, want string
		is               error
	}{
		{"unknown kind", head + `{"kind":"cubic"}]}`, `instio: threads[1].kind: unknown utility kind "cubic"`, nil},
		{"missing kind", head + `null]}`, `instio: threads[1].kind: unknown utility kind ""`, nil},
		{"decreasing ys", head + `{"kind":"sampled","xs":[0,1,2],"ys":[0,2,1]}]}`, `instio: threads[1].ys: utility: values must be nondecreasing`, nil},
		{"nonconcave ys", head + `{"kind":"piecewise","xs":[0,1,2],"ys":[0,1,5]}]}`, `instio: threads[1].ys: utility: values must be concave`, nil},
		{"ys length", head + `{"kind":"sampled","xs":[0,1,2],"ys":[0,1]}]}`, `instio: threads[1].ys: utility: interp: xs and ys have different lengths`, nil},
		{"xs origin", head + `{"kind":"sampled","xs":[1,2],"ys":[0,1]}]}`, `instio: threads[1].xs: first knot at x=1, must be 0`, nil},
		{"xs order", head + `{"kind":"piecewise","xs":[0,2,2],"ys":[0,1,2]}]}`, `instio: threads[1].xs: knots must be strictly increasing`, nil},
		{"xs element", head + `{"kind":"sampled","xs":[0,true]}]}`, `instio: threads[1].xs[1]: invalid character 't' looking for a number`, nil},
		{"string m", `{"m":"2"}`, `instio: m: invalid character '"' looking for a number`, nil},
		{"fractional m", `{"m":1.5}`, `instio: m: number 1.5 is not an int`, nil},
		{"huge c", `{"m":1,"c":1e999}`, `instio: c: number 1e999 out of float64 range`, nil},
		{"bad number", `{"m":01}`, `instio: m: invalid number "01"`, nil},
		{"fifth exponent digit", `{"m":1,"c":0.` + strings.Repeat("0", 1233) + `1e12345}`, `instio: c: number 0.00`, nil},
		{"zero m", `{"m":0,"c":1,"threads":[{"kind":"linear"}]}`, `instio: m: core: instance has 0 servers`, nil},
		{"no c", `{"m":1,"threads":[{"kind":"linear"}]}`, `instio: c: core: server capacity 0`, nil},
		{"no threads", `{"m":1,"c":1,"threads":[]}`, `instio: threads: core: instance has no threads`, nil},
		{"null instance", `null`, `instio: m: core: instance has 0 servers`, nil},
		{"not an object", `[]`, `instio: invalid character '[' looking for an object at offset 0`, nil},
		{"truncated", head + `{"kind":"sampled","xs":[0,`, `instio: threads[1].xs[1]: unexpected EOF`, nil},
		{"empty", ``, `instio: unexpected EOF`, nil},
		{"duplicate m", `{"m":1,"M":2}`, `instio: m: duplicate key "M"`, ErrDuplicateKey},
		{"duplicate field", head + `{"kind":"linear","slope":1,"SLOPE":2}]}`, `instio: threads[1].slope: duplicate key "SLOPE"`, ErrDuplicateKey},
		{"trailing", head + `{"kind":"linear"}]} garbage{`, `instio: trailing data after the JSON value at offset 74`, ErrTrailingData},
		{"second value", head + `{"kind":"linear"}]}{}`, `instio: trailing data`, ErrTrailingData},
		{"bad escape", `{"m\x":1}`, `instio: invalid character 'x' in string escape code`, nil},
		{"control char", "{\"m\n\":1}", `instio: invalid character '\n' in string literal`, nil},
		{"trailing comma", `{"m":1,}`, `instio: invalid character '}' looking for an object key`, nil},
		{"deep unknown", `{"x":` + strings.Repeat("[", maxDepth+1), `instio: value nested deeper than 1000`, nil},
	} {
		_, err := Decode(strings.NewReader(tc.body))
		var e *Error
		switch {
		case err == nil:
			t.Errorf("%s: decoded", tc.name)
		case !errors.As(err, &e):
			t.Errorf("%s: %T is not an *Error: %v", tc.name, err, err)
		case !strings.HasPrefix(err.Error(), tc.want):
			t.Errorf("%s:\n got %v\nwant %s...", tc.name, err, tc.want)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: %v is not %v", tc.name, err, tc.is)
		}
	}
}

// TestDecodeReadErrorPassesThrough: a failing reader's error comes back
// as is, so callers can match *http.MaxBytesError and friends.
func TestDecodeReadErrorPassesThrough(t *testing.T) {
	body := `[` + strings.Repeat(`{"m":1,"c":1,"threads":[{"kind":"linear","slope":1}]},`, 40) + `{"m":1}]`
	rec := httptest.NewRecorder()
	r := http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(body)), 100)
	d := NewDecoder(r)
	var err error
	for err == nil {
		_, err = d.Next()
	}
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) || tooBig.Limit != 100 {
		t.Fatalf("got %v (%T), want the *http.MaxBytesError", err, err)
	}
	if _, again := d.Next(); again != err {
		t.Fatalf("error not sticky: %v then %v", err, again)
	}
	boom := errors.New("boom")
	if _, err := Decode(iotest.ErrReader(boom)); err != boom {
		t.Fatalf("Decode: got %v, want the reader's error", err)
	}
}

// TestDecoderArray walks batch arrays: elements in order, io.EOF after
// ']', and the framing faults, each located.
func TestDecoderArray(t *testing.T) {
	inst := func(slope int) string {
		return fmt.Sprintf(`{"m":1,"c":10,"threads":[{"kind":"linear","slope":%d}]}`, slope)
	}
	for _, tc := range []struct {
		name, body string
		slopes     []float64 // elements decoded before the end
		end        string    // final error; "EOF" for a clean end
	}{
		{"empty", " [ ] \n", nil, "EOF"},
		{"one", "[" + inst(1) + "]", []float64{1}, "EOF"},
		{"three", "[\n" + inst(1) + ",\n" + inst(2) + " , " + inst(3) + "\n]\n", []float64{1, 2, 3}, "EOF"},
		{"bad element", "[" + inst(1) + `,{"m":1,"c":10,"threads":[{"kind":"cubic"}]}]`, []float64{1},
			`instio: instance 1: threads[0].kind: unknown utility kind "cubic"`},
		{"trailing after ]", "[" + inst(1) + "] garbage{", nil, "instio: trailing data after the JSON value at offset 57"},
		{"trailing after []", "[] x", nil, "instio: trailing data"},
		{"missing ]", "[" + inst(1), nil, "instio: unexpected EOF"},
		{"missing comma", "[" + inst(1) + inst(2) + "]", nil, `instio: invalid character '{' after array element`},
		{"trailing comma", "[" + inst(1) + ",]", []float64{1}, `instio: instance 1: invalid character ']' looking for an object`},
		{"not an array", inst(1), nil, `instio: invalid character '{' looking for a JSON array at offset 0`},
		{"null", "null", nil, `instio: invalid character 'n' looking for a JSON array`},
		{"empty body", "", nil, "instio: unexpected EOF"},
	} {
		d := NewDecoder(strings.NewReader(tc.body))
		var got []float64
		var err error
		for {
			var in *core.Instance
			if in, err = d.Next(); err != nil {
				break
			}
			got = append(got, in.Threads[0].(utility.Linear).Slope)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.slopes) {
			t.Errorf("%s: decoded slopes %v, want %v", tc.name, got, tc.slopes)
		}
		if !strings.HasPrefix(err.Error(), tc.end) {
			t.Errorf("%s: ended with %v, want %s...", tc.name, err, tc.end)
		}
		if _, again := d.Next(); again != err {
			t.Errorf("%s: error not sticky: %v then %v", tc.name, err, again)
		}
	}
}

// chunkReader returns data in pseudo-random chunk sizes of 1 to 64
// bytes (some reads returning io.EOF along with the last bytes).
type chunkReader struct {
	data []byte
	r    *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(len(c.data), 1+c.r.Intn(64))])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.r.Intn(2) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// readStream drains a decoder into one line per element (its M, C bits
// and thread encodings) plus the final error.
func readStream(d *Decoder) []string {
	var out []string
	for {
		in, err := d.Next()
		if err != nil {
			return append(out, "end: "+err.Error())
		}
		out = append(out, instanceLine(in))
	}
}

// instanceLine renders an instance's M, C bits and thread encodings.
func instanceLine(in *core.Instance) string {
	line := fmt.Sprintf("m=%d c=%x", in.M, math.Float64bits(in.C))
	for _, f := range in.Threads {
		b, err := AppendThreadBinary(nil, f)
		if err != nil {
			panic(err) // the decoder builds only wire families
		}
		line += fmt.Sprintf(" %x", b)
	}
	return line
}

// sameStream compares a stream read through another reader or window
// with the reference one. A window smaller than a number token ends
// that read early with errTooLong; up to there the two must agree.
func sameStream(t *testing.T, what string, got, want []string) {
	t.Helper()
	n := len(got)
	if n > 0 && strings.Contains(got[n-1], errTooLong.Error()) {
		if n > len(want) || fmt.Sprint(got[:n-1]) != fmt.Sprint(want[:n-1]) {
			t.Fatalf("%s: differs before the window overflowed:\n got %q\nwant %q", what, got, want)
		}
		return
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: differs from a single read:\n got %q\nwant %q", what, got, want)
	}
}

// checkChunking decodes data as a batch array in one read and through
// readers and windows that split it at every possible boundary.
func checkChunking(t *testing.T, data []byte, seed int64) {
	want := readStream(NewDecoder(bytes.NewReader(data)))
	sameStream(t, "one-byte reads", readStream(NewDecoder(iotest.OneByteReader(bytes.NewReader(data)))), want)
	sameStream(t, "random chunks", readStream(NewDecoder(&chunkReader{data, rand.New(rand.NewSource(seed))})), want)
	for _, size := range []int{16, 37} {
		got := readStream(newDecoderSize(&chunkReader{data, rand.New(rand.NewSource(seed))}, size))
		sameStream(t, fmt.Sprintf("%d-byte window", size), got, want)
	}
}

// batchOf joins requests into a batch array.
func batchOf(reqs [][]byte) []byte {
	return append(append([]byte("[\n"), bytes.Join(reqs, []byte(",\n"))...), "\n]\n"...)
}

func TestDecoderChunkingCorpus(t *testing.T) {
	corpus := wireCorpus(t)
	checkChunking(t, batchOf(corpus), 1)
	for i, data := range corpus {
		checkChunking(t, batchOf([][]byte{data}), int64(i))
	}
}

// FuzzDecodeRequest: whatever the scanner accepts, the reference
// encoding/json decoder accepts too, with bit-identical M, C and
// threads. The scanner may reject more (duplicate keys, trailing bytes,
// deep nesting, numbers longer than its window), never less on valid
// requests: TestDecodeMatchesReference pins that on the seeds. The same
// input also holds ScanInstance to checkScan's contract.
func FuzzDecodeRequest(f *testing.F) {
	for _, data := range wireCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		checkScan(t, data, got, err)
		if err != nil {
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("error %v (%T) is not an *Error", err, err)
			}
			return
		}
		want, err := refDecode(data)
		if err != nil {
			t.Fatalf("Decode accepted what the reference rejects (%v):\n%q", err, data)
		}
		if diff := sameInstance(got, want); diff != "" {
			t.Fatalf("Decode and the reference disagree: %s\n%q", diff, data)
		}
	})
}

// FuzzBatchStream: a batch array decodes to the same instances and the
// same final error whether it arrives in one read, one byte at a time or
// in random chunks, and through a small window.
func FuzzBatchStream(f *testing.F) {
	corpus := wireCorpus(f)
	f.Add(batchOf(corpus), int64(1))
	for i, data := range corpus {
		f.Add(batchOf([][]byte{data}), int64(i))
	}
	f.Add([]byte(`[] x`), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkChunking(t, data, seed)
	})
}

// benchInstance is one compact n=10⁴ m=64 powerlaw instance, the
// element of the batch-stream benchmark workload.
func benchInstance(b *testing.B) []byte {
	in, err := gen.Instance(gen.PowerLaw{Alpha: 2, Xmin: 1}, 64, 1000, 10_000, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return compact(b, encodeBytes(b, in))
}

func BenchmarkDecode(b *testing.B) {
	body := benchInstance(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	one := benchInstance(b)
	body := batchOf([][]byte{one, one, one, one})
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(bytes.NewReader(body))
		for {
			if _, err := d.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestScanNumberMatchesParseFloat: the one-pass finish returns
// strconv.ParseFloat's bits wherever it claims a value, and defers
// to it elsewhere.
func TestScanNumberMatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var toks []string
	for _, s := range []string{"0", "-0", "1", "-1", "0.1", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "123456789012345678901234567890",
		"0.000001", "1.5E+3", "-2.5e-3", "4.9e-324", "1.7976931348623157e308", "1e-400", "0e999"} {
		toks = append(toks, s)
	}
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		toks = append(toks, strconv.FormatFloat(f, 'g', -1, 64), strconv.FormatFloat(r.Float64()*1000, 'f', r.Intn(18), 64))
		toks = append(toks, fmt.Sprintf("%de%d", r.Int63n(1<<54), r.Intn(50)-25))
	}
	exact := 0
	for _, s := range toks {
		n, num, valid := scanNumber([]byte(s))
		if !valid || n != len(s) {
			t.Fatalf("%s: rejected a valid number", s)
		}
		v, ok := num.float()
		if !ok {
			continue
		}
		exact++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: fast path %v (%x), ParseFloat %v (%x, %v)", s, v, math.Float64bits(v), want, math.Float64bits(want), err)
		}
	}
	if exact < len(toks)/4 {
		t.Fatalf("fast path took only %d of %d numbers", exact, len(toks))
	}
	for _, s := range []string{"", "-", "01", "+1", ".5", "1.", "1e", "1e+", "--1", "1.2.3", "1e5e5", "0x10", "1_0"} {
		if n, _, valid := scanNumber([]byte(s)); valid && n == len(s) {
			t.Errorf("%q accepted as a JSON number", s)
		}
	}
}

// TestDecodeNextWrapper: the json.Decoder wrapper decodes a batch array
// to the same instances as Decoder.Next.
func TestDecodeNextWrapper(t *testing.T) {
	data := batchOf(wireCorpus(t))
	want := readStream(NewDecoder(bytes.NewReader(data)))
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for dec.More() {
		in, err := DecodeNext(dec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, instanceLine(in))
	}
	if want = want[:len(want)-1]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DecodeNext read %d instances, Next %d, or they differ", len(got), len(want))
	}
	if _, err := DecodeNext(dec); err == nil {
		t.Fatal("DecodeNext read past the array")
	}
}

// TestDecodeSampledAllocs pins the slab layout of decoded sampled
// curves: a few allocations per 256 threads, where building each curve
// on its own took three (the curve, its interpolant and its knots).
func TestDecodeSampledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 1000
	in, err := gen.Instance(gen.Discrete{L: 1, Gamma: 0.5, Theta: 4}, 16, 1000, n, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	body := compact(t, encodeBytes(t, in))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Decode(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Decode of %d sampled threads: %.0f allocs", n, allocs)
	// A curve slab and a knot slab per 256 threads, plus the instance
	// and the growth of its thread slice.
	if limit := float64(2*(n/256) + 16); allocs > limit {
		t.Fatalf("Decode of %d sampled threads made %.0f allocations, want at most %.0f", n, allocs, limit)
	}
}

// checkScan holds ScanInstance to its contract against Decode's result
// on the same body (in, err): where Decode accepts, the scan returns
// the same m and c and thread elements that decode alone to the same
// threads; where the scan accepts and Decode does not, the fault lies
// inside a thread element. So a body can differ from an accepted one
// only inside its thread elements and still pass the scan.
func checkScan(t *testing.T, data []byte, in *core.Instance, err error) {
	t.Helper()
	w, serr := ScanInstance(data)
	if serr != nil {
		var e *Error
		if !errors.As(serr, &e) {
			t.Fatalf("scan error %v (%T) is not an *Error", serr, serr)
		}
		if err == nil {
			t.Fatalf("ScanInstance rejects (%v) what Decode accepts:\n%q", serr, data)
		}
		return
	}
	if err != nil {
		var e *Error
		if !errors.As(err, &e) || !strings.HasPrefix(e.Path, "threads[") {
			t.Fatalf("ScanInstance accepts a body Decode rejects outside the thread elements (%v):\n%q", err, data)
		}
		return
	}
	if w.M != in.M || !sameBits(w.C, in.C) || len(w.Threads) != in.N() {
		t.Fatalf("scan m=%d c=%v n=%d, Decode m=%d c=%v n=%d:\n%q", w.M, w.C, len(w.Threads), in.M, in.C, in.N(), data)
	}
	c := strconv.FormatFloat(w.C, 'g', -1, 64)
	for i, th := range w.Threads {
		one, err := Decode(strings.NewReader(`{"m":1,"c":` + c + `,"threads":[` + string(th) + `]}`))
		if err != nil {
			t.Fatalf("thread %d element %q does not decode alone: %v", i, th, err)
		}
		if diff := sameInstance(&core.Instance{M: 1, C: w.C, Threads: in.Threads[i : i+1]}, one); diff != "" {
			t.Fatalf("thread %d element %q decodes alone to a different thread: %s", i, th, diff)
		}
	}
}

// TestScanInstance: the corpus holds checkScan's contract, and the scan
// rejects every instance-level fault Decode does, wherever the thread
// elements themselves are fine.
func TestScanInstance(t *testing.T) {
	for _, data := range wireCorpus(t) {
		in, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		checkScan(t, data, in, nil)
	}
	const th = `{"kind":"linear","slope":1}`
	for _, bad := range []string{
		``, `[]`, `{"m":2,"c":100}`, `{"m":2,"c":100,"threads":[]}`, `{"m":2,"c":100,"threads":null}`,
		`{"m":0,"c":100,"threads":[` + th + `]}`, `{"m":2,"c":-1,"threads":[` + th + `]}`,
		`{"m":2,"m":2,"c":100,"threads":[` + th + `]}`, `{"m":2,"c":100,"C":100,"threads":[` + th + `]}`,
		`{"m":2,"c":100,"threads":[` + th + `],"threads":[` + th + `]}`,
		`{"m":2,"c":100,"threads":[` + th + `]} x`, `{"m":2,"c":100,"threads":[` + th + `]}{}`,
		`{"m":2.5,"c":100,"threads":[` + th + `]}`, `{"m":2,"c":1e400,"threads":[` + th + `]}`,
		`{"m":2,"c":100,"threads":[` + th + `,]}`, `{"m":2,"c":100,"threads":[{"kind":"linear",}]}`,
		`{"m":2,"c":100,"threads":[` + th + `],"x":[1,}`,
		`{"m":2,"c":0.` + strings.Repeat("0", windowSize) + `1,"threads":[` + th + `]}`,
	} {
		if _, err := ScanInstance([]byte(bad)); err == nil {
			t.Errorf("ScanInstance accepts %.80q", bad)
		}
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("Decode accepts %.80q", bad)
		}
	}
	// The instance-level rules are core.ValidateShape's on both paths,
	// so the scan reports them in Decode's words.
	for _, bad := range []string{
		`{"m":0,"c":100,"threads":[` + th + `]}`, `{"m":2,"c":-1,"threads":[` + th + `]}`,
		`{"m":2,"c":100,"threads":[]}`,
	} {
		_, serr := ScanInstance([]byte(bad))
		_, derr := Decode(strings.NewReader(bad))
		if serr == nil || derr == nil || serr.Error() != derr.Error() {
			t.Errorf("%s: scan error %v, Decode error %v", bad, serr, derr)
		}
	}
	w, err := ScanInstance([]byte(` {"threads":[ ` + th + ` , {"kind":"log","scale":1,"shift":2}],"x":{},"M":3,"c":5e1}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w.M != 3 || w.C != 50 || len(w.Threads) != 2 || string(w.Threads[0]) != th ||
		string(w.Threads[1]) != `{"kind":"log","scale":1,"shift":2}` {
		t.Fatalf("scan = %+v", w)
	}
}
