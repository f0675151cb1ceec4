package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
)

// Trace identity. Spans carry W3C Trace Context identifiers so that the
// JSONL trace of one process links into the traces of every process a
// request crossed: a 128-bit trace ID shared by the whole request tree
// and a 64-bit span ID per span, serialized on the wire as the
// `traceparent` header (https://www.w3.org/TR/trace-context/).
//
// ID generation must be cheap (it runs once per span while tracing is
// on) and race-safe. A single atomic counter seeded from crypto/rand
// and finalized through the splitmix64 mixer gives both: every Add is
// one atomic instruction, the mixer is a bijection on uint64, so IDs
// never collide within a process, and the random seed makes collisions
// across processes as unlikely as random 64-bit draws.

// TraceID is the 128-bit identifier shared by every span of one
// request tree. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether t is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 64-bit identifier of one span. The zero value means
// "no span" (a root span has a zero parent).
type SpanID [8]byte

// IsZero reports whether s is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FlagSampled is the traceparent trace-flags bit for "the caller
// recorded this trace". Locally started roots always set it.
const FlagSampled = 0x01

// SpanContext identifies one span within one trace — the part of a
// span that crosses process boundaries. It is what context.Context
// carries between nested Stage.Start calls and what traceparent encodes
// on the wire.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether the context names a real span (nonzero trace
// and span IDs).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Sampled reports the sampled trace-flags bit.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Traceparent renders the context in the W3C traceparent format,
// version 00: "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>".
// The zero context renders as "" (nothing to propagate).
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.SpanID[:])
	b[52] = '-'
	hex.Encode(b[53:55], []byte{sc.Flags})
	return string(b[:])
}

// Traceparent parse errors.
var (
	ErrTraceparent = errors.New("telemetry: malformed traceparent")
)

// isLowerHex reports whether s is entirely lowercase hex digits — the
// W3C grammar requires lowercase; uppercase MUST be rejected.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// version 00 exactly, and forward-compatibly accepts higher versions
// when their first 55 bytes parse as version-00 fields followed by a
// dash (per the spec's versioning rules). The all-zero trace or span
// ID, the reserved version ff, and any uppercase hex are rejected.
func ParseTraceparent(s string) (SpanContext, error) {
	if len(s) < 55 {
		return SpanContext{}, ErrTraceparent
	}
	ver := s[0:2]
	if !isLowerHex(ver) || ver == "ff" {
		return SpanContext{}, ErrTraceparent
	}
	if ver == "00" {
		if len(s) != 55 {
			return SpanContext{}, ErrTraceparent
		}
	} else if len(s) > 55 && s[55] != '-' {
		return SpanContext{}, ErrTraceparent
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, ErrTraceparent
	}
	traceHex, spanHex, flagsHex := s[3:35], s[36:52], s[53:55]
	if !isLowerHex(traceHex) || !isLowerHex(spanHex) || !isLowerHex(flagsHex) {
		return SpanContext{}, ErrTraceparent
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(traceHex)); err != nil {
		return SpanContext{}, ErrTraceparent
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(spanHex)); err != nil {
		return SpanContext{}, ErrTraceparent
	}
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(flagsHex)); err != nil {
		return SpanContext{}, ErrTraceparent
	}
	sc.Flags = fb[0]
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, ErrTraceparent
	}
	return sc, nil
}

// idState is the process-wide ID sequence, seeded once from
// crypto/rand so different processes draw from different streams.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a fixed seed; IDs stay unique within the process.
		b = [8]byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15}
	}
	idState.Store(binary.LittleEndian.Uint64(b[:]))
}

// nextID draws the next nonzero 64-bit ID: one atomic add on the
// Weyl-sequence state, finalized through the splitmix64 mixer.
func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// NewSpanID returns a fresh process-unique span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// NewTraceID returns a fresh trace ID.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

// NewRoot returns a fresh root span context: new trace, new span, the
// sampled flag set. Use it to mint a trace without emitting a span
// (cliutil's process root goes through a Stage instead).
func NewRoot() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
}

// procParent is the process-wide default parent: spans started without
// an explicit parent (Stage.StartIn with the zero SpanContext, the
// solver stages outside an engine request) become its children instead of isolated roots. cliutil installs the
// per-invocation "process" root span here, which is what links every
// span of a CLI run into one trace with no per-binary changes.
var procParent atomic.Pointer[SpanContext]

// SetProcessParent installs sc as the process-wide default span
// parent; an invalid (zero) sc clears it.
func SetProcessParent(sc SpanContext) {
	if !sc.Valid() {
		procParent.Store(nil)
		return
	}
	procParent.Store(&sc)
}

// ProcessParent returns the installed process-wide default parent, or
// the zero SpanContext when none is installed.
func ProcessParent() SpanContext {
	if p := procParent.Load(); p != nil {
		return *p
	}
	return SpanContext{}
}

// childOf derives a new span identity under parent: same trace and
// flags, fresh span ID. An invalid parent falls back to the process
// parent, and with neither installed the span becomes the root of a
// fresh trace.
func childOf(parent SpanContext) (sc SpanContext, parentID SpanID) {
	if !parent.Valid() {
		parent = ProcessParent()
	}
	if parent.Valid() {
		return SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID(), Flags: parent.Flags}, parent.SpanID
	}
	return NewRoot(), SpanID{}
}
