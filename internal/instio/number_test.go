package instio

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar (RFC 8259 §6).
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzScanNumber: scanNumber accepts a whole input exactly when it is a
// JSON number, what it accepts as a prefix is a JSON number too (the
// decoder's in-window read takes that prefix when the next byte cannot
// extend it), and every value the one-pass finish returns has
// strconv.ParseFloat's bits; where ParseFloat fails, it returns none.
func FuzzScanNumber(f *testing.F) {
	for _, s := range []string{
		"-0", "0", "0e999", "-0e-999", "4.9e-324", "5e-324", "2.2250738585072011e-308",
		"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308", "1e-400", "1e309",
		"1234567890123456789", "12345678901234567890", "1234567890123456789012345",
		"0.1234567890123456789", "1.2345678901234567890123e5", "0.000000123", "9007199254740993",
		"123456789012345678e-5", "7.3177701707893310e+15", "-1.5e+3", "1e22", "1e23",
		// Exponent digits past the fourth: strconv stops reading them, so
		// the value is ParseFloat's.
		"0." + strings.Repeat("0", 1233) + "1e12345", "1e0000000000000000000001",
		"01", "1.", "-", "1e", "1-2", "--1", "1.5e+", ".5", "+1", "1.5x", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n, num, ok := scanNumber(b)
		if ok && !jsonNumber.Match(b[:n]) {
			t.Fatalf("scanNumber(%q) took the prefix %q, not a JSON number", b, b[:n])
		}
		whole := ok && n == len(b)
		if whole != jsonNumber.Match(b) {
			t.Fatalf("scanNumber(%q) accepts the whole input: %v; the grammar says %v", b, whole, !whole)
		}
		if !whole {
			return
		}
		want, err := strconv.ParseFloat(string(b), 64)
		if v, ok := num.float(); ok && (err != nil || !sameBits(v, want)) {
			t.Fatalf("%q: one pass read %v (%#x), ParseFloat %v (%#x, %v)", b, v, math.Float64bits(v), want, math.Float64bits(want), err)
		}
	})
}

// TestPow10Table checks the generated table of 128-bit powers of ten:
// three rows against strconv's published constants, and every row
// whose products can be normal float64s through Eisel–Lemire's results
// against ParseFloat, on 1e<q> and on random 19-digit mantissas.
func TestPow10Table(t *testing.T) {
	pow10Once.Do(buildPow10Table)
	for _, pin := range []struct {
		q    int
		want u128
	}{
		{-348, u128{0xFA8FD5A0081C0288, 0x1732C869CD60E453}},
		{0, u128{0x8000000000000000, 0}},
		{347, u128{0xD13EB46469447567, 0x4B7195F2D2D1A9FB}},
	} {
		if got := pow10Table[pin.q-pow10Min]; got != pin.want {
			t.Errorf("row 1e%d = %#x, want %#x", pin.q, got, pin.want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for q := pow10Min; q <= pow10Max; q++ {
		decided, normal := 0, 0
		for i := 0; i < 40; i++ {
			mant := uint64(1)
			if i > 0 {
				mant = 1e18 + r.Uint64()%9e18
			}
			want, err := strconv.ParseFloat(strconv.FormatUint(mant, 10)+"e"+strconv.Itoa(q), 64)
			if err == nil && math.Abs(want) >= 0x1p-1022 {
				normal++
			}
			v, ok := eiselLemire(mant, q, false)
			if !ok {
				continue
			}
			decided++
			if err != nil || !sameBits(v, want) {
				t.Fatalf("%de%d: Eisel–Lemire %v (%#x), ParseFloat %v (%#x, %v)", mant, q, v, math.Float64bits(v), want, math.Float64bits(want), err)
			}
		}
		if normal > 0 && decided == 0 {
			t.Errorf("row 1e%d: Eisel–Lemire decided none of %d normal results", q, normal)
		}
	}
}
