package instio

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// decimal is a number token as scanNumber reads it in one pass: the
// value (-1)^neg · mant · 10^exp, unless dropped says the fields could
// not hold it.
type decimal struct {
	mant uint64 // the first maxDigits significant digits
	exp  int    // decimal exponent of mant's last digit
	neg  bool
	// dropped: a nonzero digit after the first maxDigits, or an exponent
	// digit that strconv would not read either, was left out.
	dropped bool
}

// maxDigits is the number of significant digits mant holds: 10^19 < 2^64.
const maxDigits = 19

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isNumByte reports whether c can occur in a number token. A number
// token is the longest run of them, so a number followed by one is
// malformed.
func isNumByte(c byte) bool {
	return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// scanNumber reads the JSON number at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, in one pass, and
// returns its length and digits. It stops at the first byte that cannot
// extend the number; ok is false when b does not start with one, or a
// '.' or exponent mark has no digits after it.
func scanNumber(b []byte) (n int, num decimal, ok bool) {
	i, nd := 0, 0 // nd: significant digits in num.mant
	if i < len(b) && b[i] == '-' {
		i, num.neg = 1, true
	}
	switch {
	case i == len(b):
		return 0, num, false
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxDigits {
				num.mant = num.mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				num.exp++
				num.dropped = num.dropped || b[i] != '0'
			}
		}
	default:
		return 0, num, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxDigits {
				num.mant = num.mant*10 + uint64(b[i]-'0')
				num.exp--
				if num.mant != 0 {
					nd++ // zeros before the first nonzero digit are not significant
				}
			} else {
				num.dropped = num.dropped || b[i] != '0'
			}
		}
		if i == j {
			return 0, num, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			// strconv stops reading exponent digits here too; past this
			// the value is ParseFloat's, whatever it makes of it.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			} else {
				num.dropped = true
			}
		}
		if i == j {
			return 0, num, false
		}
		if neg {
			e = -e
		}
		num.exp += e
	}
	return i, num, true
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float returns the value correctly rounded, which is the value
// strconv.ParseFloat returns. ok is false when neither finish below can
// produce it: digits were dropped, or Eisel–Lemire declines (overflow,
// subnormals, and the rare products too close to a rounding boundary).
// The caller then asks ParseFloat.
func (num decimal) float() (v float64, ok bool) {
	if num.dropped {
		return 0, false
	}
	// Exact operands and one correctly rounded operation: a digit string
	// below 2^53 times or divided by 10^0..10^22.
	if num.mant < 1<<53 && -22 <= num.exp && num.exp <= 22 {
		v = float64(num.mant)
		if num.exp < 0 {
			v /= pow10[-num.exp]
		} else {
			v *= pow10[num.exp]
		}
		if num.neg {
			v = -v
		}
		return v, true
	}
	return eiselLemire(num.mant, num.exp, num.neg)
}

// The rows of pow10Table: 10^pow10Min through 10^pow10Max. A nonzero
// 19-digit mantissa times a power outside them is zero or infinite.
const (
	pow10Min = -348
	pow10Max = 347
)

// u128 is a 128-bit unsigned integer.
type u128 struct{ hi, lo uint64 }

var (
	pow10Once  sync.Once
	pow10Table *[pow10Max - pow10Min + 1]u128
)

// buildPow10Table computes pow10Table with math/big: row q-pow10Min
// holds 10^q scaled by a power of two into [2^127, 2^128) and rounded
// down, the table strconv's Eisel–Lemire uses. It runs once, on the
// first number that needs it.
func buildPow10Table() {
	t := new([pow10Max - pow10Min + 1]u128)
	ten, v := big.NewInt(10), new(big.Int)
	var row [16]byte
	for q := pow10Min; q <= pow10Max; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		switch s := p.BitLen() - 128; {
		case q < 0:
			// 2^(127+L) / 10^-q, where 10^-q has L bits, lies in
			// (2^127, 2^128).
			v.Quo(v.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		case s > 0:
			v.Rsh(p, uint(s))
		default:
			v.Lsh(p, uint(-s))
		}
		v.FillBytes(row[:])
		t[q-pow10Min] = u128{binary.BigEndian.Uint64(row[:8]), binary.BigEndian.Uint64(row[8:])}
	}
	pow10Table = t
}

// eiselLemire returns mant·10^exp10 correctly rounded, or ok false when
// it cannot decide: Lemire, "Number Parsing at a Gigabyte per Second"
// (arXiv:2101.11408), in the form with a rounded-down table that
// strconv uses. It multiplies the normalized mantissa by the 128-bit
// power of ten and keeps the top 54 bits; when the bits below them are
// too close to a carry or a halfway point for the truncated power to
// settle the rounding, or the result is subnormal or infinite, it
// declines.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow10Once.Do(buildPow10Table)
	pow := &pow10Table[exp10-pow10Min]
	lz := bits.LeadingZeros64(mant)
	mant <<= uint(lz)
	// 217706/2^16 ≈ log2(10): the biased binary exponent of the product's
	// top bit, less one when that bit lands one place lower.
	e2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)
	hi, lo := bits.Mul64(mant, pow.hi)
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		// The 9 bits under the 54 kept are all ones and the low word
		// could carry into them: add the table's low word's product.
		yHi, yLo := bits.Mul64(mant, pow.lo)
		mLo, carry := bits.Add64(lo, yHi, 0)
		mHi := hi + carry
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	top := hi >> 63
	m := hi >> (top + 9)
	e2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // exactly halfway as far as the product shows
	}
	m += m & 1 // round to 53 bits; the ties that go down were turned away above
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		e2++
	}
	if e2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero or infinite: e2 is 0, wrapped or ≥ 0x7FF
	}
	b := e2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
