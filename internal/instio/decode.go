package instio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"aa/internal/core"
	"aa/internal/utility"
)

// windowSize is the decoder's fixed read window. A number token must fit
// in it; strings and structure stream through it at any length.
const windowSize = 64 << 10

// maxDepth bounds the nesting of skipped unknown field values
// (encoding/json's limit is 10000).
const maxDepth = 1000

// maxKeep caps the bytes kept of a key or kind string: no field name or
// utility kind is that long, so a longer string can be cut and still
// match nothing.
const maxKeep = 64

// Typed decode failures, matched with errors.Is.
var (
	// ErrDuplicateKey: a known field appears twice in one object (keys
	// compare case-insensitively, as fields are matched).
	ErrDuplicateKey = errors.New("duplicate key")
	// ErrTrailingData: something other than whitespace follows the
	// instance, or the closing ']' of a batch array.
	ErrTrailingData = errors.New("trailing data after the JSON value")

	errTooLong = errors.New("number longer than the decoder window")
)

// Error is a decode failure with the place in the input it happened.
type Error struct {
	// Instance is the element's index within a batch array, or -1 for a
	// single instance and for the array's own framing.
	Instance int
	// Path is the field path inside the instance, like "threads[17].ys";
	// empty when the failure is not inside a field.
	Path string
	Err  error
}

func (e *Error) Error() string {
	var b strings.Builder
	b.WriteString("instio: ")
	if e.Instance >= 0 {
		fmt.Fprintf(&b, "instance %d: ", e.Instance)
	}
	if e.Path != "" {
		b.WriteString(e.Path)
		b.WriteString(": ")
	}
	b.WriteString(e.Err.Error())
	return b.String()
}

func (e *Error) Unwrap() error { return e.Err }

// within prefixes err's field path with seg, a field name or an "[i]"
// index, as the error passes up out of that field.
func within(err error, seg string) error {
	if err == nil {
		return nil
	}
	e, ok := err.(*Error)
	if !ok {
		return &Error{Instance: -1, Path: seg, Err: err}
	}
	switch {
	case e.Path == "":
		e.Path = seg
	case e.Path[0] == '[':
		e.Path = seg + e.Path
	default:
		e.Path = seg + "." + e.Path
	}
	return e
}

func index(i int) string { return "[" + strconv.Itoa(i) + "]" }

// Decoder reads instances from a byte stream in one pass through a
// fixed-size window, building each thread's utility as its object
// closes. It holds only the window, the instance being built and
// per-thread scratch, so a batch of any length decodes in bounded
// memory.
//
// The wire format is the one Encode writes, read with encoding/json's
// rules for what clients send: keys in any order, matched
// case-insensitively; unknown fields skipped; null leaves a field at its
// zero value. Unlike encoding/json, a known field given twice is
// ErrDuplicateKey and bytes after the value are ErrTrailingData.
type Decoder struct {
	r        io.Reader
	buf      []byte // the window: buf[pos:end] is read but not consumed
	pos, end int
	off      int64 // stream offset of buf[0]
	rerr     error // the reader's first error (io.EOF at the end)

	started bool  // Next consumed the array's '['
	elem    int   // Next: index of the next array element
	err     error // Next: sticky result once the array ends or fails

	// Scratch reused across threads. The utility constructors copy the
	// knots they keep, so none of it escapes into a decoded instance.
	text    []byte
	xs, ys  []float64
	pending []pendingThread

	// Slabs the sampled curves are built into: the unused tails of the
	// current allocations. Curves handed out earlier own the parts
	// before them, so the tails carry over from one instance to the
	// next.
	curves []utility.Sampled
	knots  []float64
}

// Slab sizes: a few large allocations per instance instead of two per
// sampled thread.
const (
	slabCurves = 256
	slabKnots  = 4096
)

// NewDecoder returns a decoder reading the JSON array of instances in r;
// Next returns its elements.
func NewDecoder(r io.Reader) *Decoder { return newDecoderSize(r, windowSize) }

func newDecoderSize(r io.Reader, size int) *Decoder {
	return &Decoder{r: r, buf: make([]byte, size)}
}

// decoders recycles Decode's windows and scratch between calls.
var decoders = sync.Pool{New: func() any { return NewDecoder(nil) }}

// Decode reads one instance, which must be the whole of r apart from
// surrounding whitespace, and validates it.
func Decode(r io.Reader) (*core.Instance, error) {
	d := decoders.Get().(*Decoder)
	*d = Decoder{r: r, buf: d.buf, text: d.text, xs: d.xs, ys: d.ys, pending: d.pending,
		curves: d.curves, knots: d.knots}
	in, err := d.instance()
	if err == nil {
		err = d.finish()
	}
	if err != nil {
		in, err = nil, d.located(err, -1)
	}
	d.r = nil
	decoders.Put(d)
	return in, err
}

// DecodeNext decodes one instance from dec, for callers that walk a JSON
// array with dec.Token and dec.More. It is a thin wrapper that reads the
// value as a json.RawMessage and hands it to Decode; NewDecoder(r).Next
// reads an array without that extra copy.
func DecodeNext(dec *json.Decoder) (*core.Instance, error) {
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	return Decode(bytes.NewReader(raw))
}

// Next decodes the next instance of the JSON array in the stream and
// validates it. It returns io.EOF once the array has ended; the call
// that returns the last element has already consumed the closing ']'
// and checked that only whitespace follows it, so trailing bytes fail
// that call. An error from the underlying reader (an
// *http.MaxBytesError, say) is returned as is. Errors are sticky.
func (d *Decoder) Next() (*core.Instance, error) {
	if d.err != nil {
		return nil, d.err
	}
	in, err := d.next()
	if err != nil {
		d.err = err
	}
	return in, err
}

func (d *Decoder) next() (*core.Instance, error) {
	if !d.started {
		d.started = true
		c, err := d.peek()
		if err != nil {
			return nil, d.located(err, -1)
		}
		if c != '[' {
			return nil, d.located(d.badChar(c, "looking for a JSON array"), -1)
		}
		d.pos++
		if c, err = d.peek(); err != nil {
			return nil, d.located(err, -1)
		}
		if c == ']' {
			d.pos++
			if err := d.finish(); err != nil {
				return nil, d.located(err, -1)
			}
			return nil, io.EOF
		}
	}
	k := d.elem
	in, err := d.instance()
	if err != nil {
		return nil, d.located(err, k)
	}
	d.elem++
	c, err := d.peek()
	if err != nil {
		return nil, d.located(err, -1)
	}
	switch c {
	case ',':
		d.pos++
	case ']':
		d.pos++
		if err := d.finish(); err != nil {
			return nil, d.located(err, -1)
		}
		d.err = io.EOF
	default:
		return nil, d.located(d.badChar(c, "after array element"), -1)
	}
	return in, nil
}

// located finishes an error for the caller: a failed read is returned
// as is (it is why decoding stopped), anything else as an *Error.
func (d *Decoder) located(err error, instance int) error {
	if d.rerr != nil && d.rerr != io.EOF {
		return d.rerr
	}
	e, ok := err.(*Error)
	if !ok {
		e = &Error{Err: err}
	}
	e.Instance = instance
	return e
}

// finish consumes the whitespace after a complete value and reports
// ErrTrailingData if anything else follows before the end of input.
func (d *Decoder) finish() error {
	_, err := d.peek()
	switch {
	case err == nil:
		return fmt.Errorf("%w at offset %d", ErrTrailingData, d.off+int64(d.pos))
	case d.rerr == io.EOF:
		return nil
	default:
		return err
	}
}

// ---------------------------------------------------------------------------
// The instance schema
// ---------------------------------------------------------------------------

var instanceKeys = [...]string{"m", "c", "threads"}

const (
	keyM = iota
	keyC
	keyThreads
)

var threadKeys = [...]string{"kind", "slope", "knee", "scale", "beta", "shift", "k", "xs", "ys"}

const (
	keyKind = iota
	keySlope
	keyKnee
	keyScale
	keyBeta
	keyShift
	keyK
	keyXs
	keyYs
)

// lookup returns the index of the field key names: an exact match, or
// else a case-insensitive one (bytes.EqualFold, encoding/json's rule).
// It returns -1 for an unknown key.
func lookup(fields []string, key []byte) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}

// wireThread holds one thread's fields while its object is read.
type wireThread struct {
	kind                                  byte   // bin* tag; 0 when absent or unknown
	name                                  string // the kind as sent, kept only when unknown
	slope, knee, scale, beta, shift, kpar float64
}

// closed builds a closed-form family over capacity c.
func (t *wireThread) closed(c float64) utility.Func {
	switch t.kind {
	case binLinear:
		return utility.Linear{Slope: t.slope, C: c}
	case binCappedLinear:
		return utility.CappedLinear{Slope: t.slope, Knee: t.knee, C: c}
	case binPower:
		return utility.Power{Scale: t.scale, Beta: t.beta, C: c}
	case binLog:
		return utility.Log{Scale: t.scale, Shift: t.shift, C: c}
	case binSatExp:
		return utility.SatExp{Scale: t.scale, K: t.kpar, C: c}
	default:
		return utility.Saturating{Scale: t.scale, K: t.kpar, C: c}
	}
}

// pendingThread is a closed-form thread read before the instance's "c":
// it is built once the instance object closes and C is final.
type pendingThread struct {
	i int
	t wireThread
}

func (d *Decoder) instance() (*core.Instance, error) {
	in := &core.Instance{}
	d.pending = d.pending[:0]
	err := d.instanceObject(&in.M, &in.C, func(haveC bool) error { return d.threads(in, haveC) })
	if err != nil {
		return nil, err
	}
	for _, p := range d.pending {
		in.Threads[p.i] = p.t.closed(in.C)
	}
	if err := validateShape(in.M, in.C, len(in.Threads)); err != nil {
		return nil, err
	}
	return in, nil
}

// validateShape applies core.ValidateShape, the instance-level rules of
// core.Instance.Validate, and names the offending field. Decode and
// ScanInstance both call it, so the relay's scan rejects exactly the
// shapes the node does.
func validateShape(m int, c float64, n int) error {
	err := core.ValidateShape(m, c, n)
	if err == nil {
		return nil
	}
	field := "threads"
	switch {
	case m <= 0:
		field = "m"
	case !(c > 0):
		field = "c"
	}
	return within(err, field)
}

// instanceObject reads an instance object under the rules Decode and
// ScanInstance share: keys matched as lookup does, a known key given
// twice is ErrDuplicateKey, unknown fields are skipped. It reads m and c
// into *m and *c and hands the threads value to threads, telling it
// whether "c" came first.
func (d *Decoder) instanceObject(m *int, c *float64, threads func(haveC bool) error) error {
	var seen [len(instanceKeys)]bool
	return d.object(func(key []byte) error {
		f := lookup(instanceKeys[:], key)
		if f < 0 {
			return d.skip(0)
		}
		if seen[f] {
			return within(fmt.Errorf("%w %q", ErrDuplicateKey, key), instanceKeys[f])
		}
		seen[f] = true
		switch f {
		case keyM:
			return within(d.intValue(m), "m")
		case keyC:
			return within(d.floatValue(c), "c")
		default:
			return within(threads(seen[keyC]), "threads")
		}
	})
}

// WireInstance is an instance as ScanInstance reads it: m, c, and the
// exact bytes of each thread element, unbuilt.
type WireInstance struct {
	M       int
	C       float64
	Threads [][]byte // subslices of the scanned body, in wire order
}

// ScanInstance reads body, one instance, without building its utilities.
// Outside the thread elements it applies every rule Decode does: key
// matching, duplicate keys, unknown fields, trailing data, and
// validateShape's checks on m, c and the thread count. Each thread
// element is checked only as JSON and returned as its bytes. Decode builds each
// thread from its own bytes and the instance's C alone, so bodies with
// equal m and c and equal thread bytes, in any order, decode to the
// same instance up to that order — the identity the relay cache keys
// on.
func ScanInstance(body []byte) (WireInstance, error) {
	d := Decoder{buf: body, end: len(body), rerr: io.EOF}
	var w WireInstance
	err := d.instanceObject(&w.M, &w.C, func(bool) error {
		return d.array(func(i int) error {
			if _, err := d.peek(); err != nil {
				return within(err, index(i))
			}
			start := d.pos
			if err := d.skip(0); err != nil {
				return within(err, index(i))
			}
			w.Threads = append(w.Threads, body[start:d.pos])
			return nil
		})
	})
	if err == nil {
		err = d.finish()
	}
	if err == nil {
		err = validateShape(w.M, w.C, len(w.Threads))
	}
	if err != nil {
		return WireInstance{}, d.located(err, -1)
	}
	return w, nil
}

// threads reads the threads array, appending each utility to in.
// Closed forms read before "c" (haveC false) are queued on d.pending
// behind a nil placeholder.
func (d *Decoder) threads(in *core.Instance, haveC bool) error {
	return d.array(func(i int) error {
		f, err := d.thread(i, haveC, in.C)
		if err != nil {
			return within(err, index(i))
		}
		in.Threads = append(in.Threads, f)
		return nil
	})
}

func (d *Decoder) thread(i int, haveC bool, c float64) (utility.Func, error) {
	var t wireThread
	var seen [len(threadKeys)]bool
	d.xs, d.ys = d.xs[:0], d.ys[:0]
	err := d.object(func(key []byte) error {
		f := lookup(threadKeys[:], key)
		if f < 0 {
			return d.skip(0)
		}
		if seen[f] {
			return within(fmt.Errorf("%w %q", ErrDuplicateKey, key), threadKeys[f])
		}
		seen[f] = true
		var err error
		switch f {
		case keyKind:
			err = d.kindValue(&t)
		case keySlope:
			err = d.floatValue(&t.slope)
		case keyKnee:
			err = d.floatValue(&t.knee)
		case keyScale:
			err = d.floatValue(&t.scale)
		case keyBeta:
			err = d.floatValue(&t.beta)
		case keyShift:
			err = d.floatValue(&t.shift)
		case keyK:
			err = d.floatValue(&t.kpar)
		case keyXs:
			err = d.floats(&d.xs)
		default:
			err = d.floats(&d.ys)
		}
		return within(err, threadKeys[f])
	})
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case 0:
		return nil, within(fmt.Errorf("unknown utility kind %q", t.name), "kind")
	case binPiecewise, binSampled:
		return d.knotThread(t.kind)
	}
	if !haveC {
		d.pending = append(d.pending, pendingThread{i: i, t: t})
		return nil, nil
	}
	return t.closed(c), nil
}

// knotThread builds a knot family from d.xs and d.ys. checkXs runs
// first so that whatever the constructor still rejects is a fault of ys.
func (d *Decoder) knotThread(kind byte) (utility.Func, error) {
	if err := checkXs(d.xs); err != nil {
		return nil, within(err, "xs")
	}
	if kind == binPiecewise {
		f, err := utility.NewPiecewiseLinear(d.xs, d.ys)
		if err != nil {
			return nil, within(err, "ys")
		}
		return f, nil
	}
	return d.sampled()
}

// sampled builds a sampled curve from d.xs and d.ys into the slabs,
// taking a fresh slab when the current one is used up.
func (d *Decoder) sampled() (utility.Func, error) {
	n := 3 * len(d.xs)
	if len(d.curves) == 0 {
		d.curves = make([]utility.Sampled, slabCurves)
	}
	if len(d.knots) < n {
		d.knots = make([]float64, max(n, slabKnots))
	}
	f := &d.curves[0]
	if err := f.Init(d.xs, d.ys, d.knots[:n:n]); err != nil {
		return nil, within(err, "ys")
	}
	d.curves, d.knots = d.curves[1:], d.knots[n:]
	return f, nil
}

// checkXs reports the faults of the knot abscissae that the curve
// constructors reject; it accepts exactly the xs they accept.
func checkXs(xs []float64) error {
	switch {
	case len(xs) < 2:
		return fmt.Errorf("need at least two knots, got %d", len(xs))
	case xs[0] != 0:
		return fmt.Errorf("first knot at x=%v, must be 0", xs[0])
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return fmt.Errorf("knots must be strictly increasing: [%d]=%v after [%d]=%v", i, xs[i], i-1, xs[i-1])
		}
	}
	return nil
}

func (d *Decoder) kindValue(t *wireThread) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.badChar(c, "looking for a string")
	}
	s, err := d.str(true)
	if err != nil {
		return err
	}
	for k := binLinear; k <= binSampled; k++ {
		if string(s) == wireKinds[k] {
			t.kind = k
			return nil
		}
	}
	t.name = string(s)
	return nil
}

func (d *Decoder) floatValue(dst *float64) error {
	tok, v, exact, err := d.numberValue()
	if err != nil || tok == nil {
		return err
	}
	if !exact {
		if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
			return fmt.Errorf("number %s out of float64 range", tok)
		}
	}
	*dst = v
	return nil
}

func (d *Decoder) intValue(dst *int) error {
	tok, _, _, err := d.numberValue()
	if err != nil || tok == nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return fmt.Errorf("number %s is not an int", tok)
	}
	*dst = int(v)
	return nil
}

// floats reads an array of numbers into *dst; a null element reads as 0.
func (d *Decoder) floats(dst *[]float64) error {
	return d.array(func(j int) error {
		var v float64
		if err := d.floatValue(&v); err != nil {
			return within(err, index(j))
		}
		*dst = append(*dst, v)
		return nil
	})
}

// ints is floats for ints.
func (d *Decoder) ints(dst *[]int) error {
	return d.array(func(j int) error {
		var v int
		if err := d.intValue(&v); err != nil {
			return within(err, index(j))
		}
		*dst = append(*dst, v)
		return nil
	})
}

// numberValue consumes a number, returning what number does, or
// consumes a null and returns a nil token.
func (d *Decoder) numberValue() (tok []byte, v float64, exact bool, err error) {
	c, err := d.peek()
	if err != nil {
		return nil, 0, false, err
	}
	switch {
	case c == '-' || isDigit(c):
		return d.number()
	case c == 'n':
		return nil, 0, false, d.literal("null")
	default:
		return nil, 0, false, d.badChar(c, "looking for a number")
	}
}

// ---------------------------------------------------------------------------
// JSON syntax over the window
// ---------------------------------------------------------------------------

// fill moves the unconsumed bytes to the front of the window and reads
// more after them. It reports whether the window gained bytes; when it
// did not, either the window is full or d.rerr says why.
func (d *Decoder) fill() bool {
	if d.rerr != nil {
		return false // nothing more will arrive: keep offsets into buf stable
	}
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.off += int64(d.pos)
		d.pos = 0
	}
	if d.end == len(d.buf) {
		return false
	}
	for tries := 0; tries < 100; tries++ {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// errEnd is the error for input that stops inside a value.
func (d *Decoder) errEnd() error {
	switch {
	case d.end-d.pos == len(d.buf) && d.rerr == nil:
		return errTooLong
	case d.rerr == io.EOF:
		return io.ErrUnexpectedEOF
	default:
		return d.rerr
	}
}

func (d *Decoder) badChar(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", c, context, d.off+int64(d.pos))
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *Decoder) peek() (byte, error) {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, nil
			}
		}
		if !d.fill() {
			return 0, d.errEnd()
		}
	}
}

// ensure reports whether at least n unconsumed bytes are in the window,
// reading more if needed.
func (d *Decoder) ensure(n int) bool {
	for d.end-d.pos < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

func (d *Decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == d.end && !d.fill() {
			return d.errEnd()
		}
		if c := d.buf[d.pos]; c != word[i] {
			return d.badChar(c, "in literal "+word)
		}
		d.pos++
	}
	return nil
}

// object consumes an object, calling member with each key (unescaped;
// valid until the next string is read) to consume its value. A null
// reads as an empty object, leaving every field at its zero value.
func (d *Decoder) object(member func(key []byte) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '{' {
		return d.badChar(c, "looking for an object")
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		if c != '"' {
			return d.badChar(c, "looking for an object key")
		}
		key, err := d.str(true)
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.badChar(c, "after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
			if c, err = d.peek(); err != nil {
				return err
			}
		case '}':
			d.pos++
			return nil
		default:
			return d.badChar(c, "after object key:value pair")
		}
	}
}

// array consumes an array, calling elem with each index to consume the
// element. A null reads as an empty array.
func (d *Decoder) array(elem func(i int) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '[' {
		return d.badChar(c, "looking for an array")
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.badChar(c, "after array element")
		}
	}
}

// skip consumes one value of any type, checking its syntax.
func (d *Decoder) skip(depth int) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return fmt.Errorf("value nested deeper than %d at offset %d", maxDepth, d.off+int64(d.pos))
		}
		if c == '{' {
			return d.object(func([]byte) error { return d.skip(depth + 1) })
		}
		return d.array(func(int) error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.str(false)
		return err
	case c == '-' || isDigit(c):
		_, _, _, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.badChar(c, "looking for a value")
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumByte(c byte) bool {
	return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// number consumes the number starting at d.pos. It returns the token's
// bytes, valid until the window next refills, and its value when
// scanNumber could compute it exactly.
func (d *Decoder) number() (tok []byte, v float64, exact bool, err error) {
	k := 0
	for {
		for d.pos+k < d.end && isNumByte(d.buf[d.pos+k]) {
			k++
		}
		if d.pos+k < d.end {
			break
		}
		if !d.fill() {
			if d.rerr != io.EOF {
				return nil, 0, false, d.errEnd()
			}
			break // the input ends with the number
		}
	}
	if k >= windowSize {
		return nil, 0, false, errTooLong // the limit of a streamed read, kept over a buffered one
	}
	tok = d.buf[d.pos : d.pos+k]
	v, exact, ok := scanNumber(tok)
	if !ok {
		return nil, 0, false, fmt.Errorf("invalid number %q at offset %d", tok, d.off+int64(d.pos))
	}
	d.pos += k
	return tok, v, exact, nil
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanNumber reports whether b is a JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and computes its value
// when that takes one correctly rounded operation on exact operands: a
// digit string below 2^53 times or divided by 10^0..10^22. The correctly
// rounded result is unique, so it has the bits strconv.ParseFloat would
// return; exact is false when the caller needs ParseFloat.
func scanNumber(b []byte) (v float64, exact, ok bool) {
	const maxMant = 1 << 53
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		i, neg = 1, true
	}
	var mant uint64
	exact = true
	exp := 0 // decimal exponent of the last accumulated digit
	digit := func(c byte, frac bool) {
		if !exact {
			return
		}
		mant = mant*10 + uint64(c-'0')
		exact = mant < maxMant
		if frac {
			exp--
		}
	}
	switch {
	case i == len(b):
		return 0, false, false
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		for ; i < len(b) && isDigit(b[i]); i++ {
			digit(b[i], false)
		}
	default:
		return 0, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			digit(b[i], true)
		}
		if i == j {
			return 0, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		j, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false, false
		}
		exp += sign * e
	}
	if i != len(b) {
		return 0, false, false
	}
	if !exact || exp < -22 || exp > 22 {
		return 0, false, true
	}
	v = float64(mant)
	if exp < 0 {
		v /= pow10[-exp]
	} else {
		v *= pow10[exp]
	}
	if neg {
		v = -v
	}
	return v, true, true
}

// str consumes the string whose opening quote is at d.pos. With keep it
// returns the unescaped contents in d.text, cut at maxKeep bytes;
// without, it only checks the syntax.
func (d *Decoder) str(keep bool) ([]byte, error) {
	d.pos++
	d.text = d.text[:0]
	for {
		i := d.pos
		for i < d.end {
			if c := d.buf[i]; c == '"' || c == '\\' || c < 0x20 {
				break
			}
			i++
		}
		if keep {
			d.keep(d.buf[d.pos:i])
		}
		d.pos = i
		if i == d.end {
			if !d.fill() {
				return nil, d.errEnd()
			}
			continue
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.pos++
			return d.text, nil
		case c < 0x20:
			return nil, d.badChar(c, "in string literal")
		}
		if err := d.escape(keep); err != nil {
			return nil, err
		}
	}
}

func (d *Decoder) keep(b []byte) {
	if room := maxKeep - len(d.text); room > 0 {
		d.text = append(d.text, b[:min(len(b), room)]...)
	}
}

// escape consumes the escape sequence at d.pos, decoding it into d.text
// with keep. Surrogates decode as encoding/json does them: a valid pair
// to its rune, anything else to U+FFFD.
func (d *Decoder) escape(keep bool) error {
	if !d.ensure(2) {
		return d.errEnd()
	}
	var r rune
	switch c := d.buf[d.pos+1]; c {
	case '"', '\\', '/':
		r = rune(c)
	case 'b':
		r = '\b'
	case 'f':
		r = '\f'
	case 'n':
		r = '\n'
	case 'r':
		r = '\r'
	case 't':
		r = '\t'
	case 'u':
		if !d.ensure(6) {
			return d.errEnd()
		}
		var ok bool
		if r, ok = hex4(d.buf[d.pos+2 : d.pos+6]); !ok {
			return fmt.Errorf("invalid \\u escape %q at offset %d", d.buf[d.pos:d.pos+6], d.off+int64(d.pos))
		}
		if utf16.IsSurrogate(r) {
			r2 := utf8.RuneError
			if d.ensure(12) && d.buf[d.pos+6] == '\\' && d.buf[d.pos+7] == 'u' {
				if lo, ok := hex4(d.buf[d.pos+8 : d.pos+12]); ok {
					if r2 = utf16.DecodeRune(r, lo); r2 != utf8.RuneError {
						d.pos += 6
					}
				}
			}
			r = r2
		}
		d.pos += 4 // the hex digits; the 2 below cover the backslash and 'u'
	default:
		d.pos++
		return d.badChar(c, "in string escape code")
	}
	d.pos += 2
	if keep {
		var b [utf8.UTFMax]byte
		d.keep(b[:utf8.EncodeRune(b[:], r)])
	}
	return nil
}

func hex4(b []byte) (rune, bool) {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
