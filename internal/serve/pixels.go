package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Pixels is a clip's flattened pixel array. It decodes a JSON array of
// numbers directly, without encoding/json's reflective per-element walk
// (the bulk of a /v1/detect request's CPU), and accepts and rejects
// exactly what encoding/json accepts and rejects into a []float32: each
// element is strconv.ParseFloat(s, 32) bit for bit, a null element is 0,
// a null array is nil, and anything else (strings, booleans, nested
// values, out-of-range numbers) is an error. It has no MarshalJSON, so it
// encodes exactly like []float32.
type Pixels []float32

// UnmarshalJSON implements json.Unmarshaler.
func (p *Pixels) UnmarshalJSON(b []byte) error {
	b = bytes.Trim(b, jsonSpace)
	if string(b) == "null" {
		*p = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return errors.New("pixels: want an array of numbers")
	}
	b = b[1 : len(b)-1]
	i := skipSpace(b, 0)
	if i == len(b) {
		*p = Pixels{}
		return nil
	}
	out := make(Pixels, 0, bytes.Count(b, []byte{','})+1)
	for {
		j := i
		for j < len(b) && b[j] != ',' && !isSpace(b[j]) {
			j++
		}
		tok := b[i:j]
		if string(tok) == "null" {
			out = append(out, 0)
		} else {
			v, err := parseFloat32(tok)
			if err != nil {
				return fmt.Errorf("pixels: element %d: %w", len(out), err)
			}
			out = append(out, v)
		}
		i = skipSpace(b, j)
		if i == len(b) {
			break
		}
		if b[i] != ',' {
			return fmt.Errorf("pixels: element %d: expected ',' after %s", len(out)-1, tok)
		}
		i = skipSpace(b, i+1)
	}
	*p = out
	return nil
}

const jsonSpace = " \t\n\r"

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// float64pow10 holds the powers of ten float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat32 parses a token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns exactly
// float32(strconv.ParseFloat(tok, 32)), rejecting what the grammar
// rejects even where ParseFloat would not ("inf", "0x1p3", "+1", ".5").
//
// Tokens of at most 15 significant digits and a decimal exponent within
// ±22 take a fast path: mantissa and power of ten are exact in float64,
// so one float64 multiply or divide is the correctly rounded value y,
// and float32(y) is the correctly rounded float32 unless y sits exactly
// on a float32 rounding midpoint (then rounding twice may differ from
// rounding once). Midpoints, subnormal or out-of-range results and
// longer tokens go to strconv.
func parseFloat32(tok []byte) (float32, error) {
	i, neg := 0, false
	if i < len(tok) && tok[i] == '-' {
		i, neg = i+1, true
	}
	var m uint64
	exp, long := 0, false
	digit := func(d byte) {
		if m >= 1e14 { // a 16th significant digit could pass 2⁵³
			long = true
			return
		}
		m = m*10 + uint64(d-'0')
	}
	switch {
	case i < len(tok) && tok[i] == '0':
		i++
	case i < len(tok) && tok[i] >= '1' && tok[i] <= '9':
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			digit(tok[i])
		}
	default:
		return 0, errNotNumber(tok)
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		start := i
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			digit(tok[i])
			exp--
		}
		if i == start {
			return 0, errNotNumber(tok)
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		eneg := false
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			eneg = tok[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(tok) && tok[i] >= '0' && tok[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(tok[i]-'0')
			}
		}
		if i == start {
			return 0, errNotNumber(tok)
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(tok) {
		return 0, errNotNumber(tok)
	}
	if !long && exp >= -22 && exp <= 22 {
		y := float64(m)
		if exp >= 0 {
			y *= float64pow10[exp]
		} else {
			y /= float64pow10[-exp]
		}
		const midpoint, low = 1 << 28, 1<<29 - 1 // float64 bits below float32 precision
		if y == 0 || (y >= 1e-37 && y <= 1e38 && math.Float64bits(y)&low != midpoint) {
			if neg {
				y = -y
			}
			return float32(y), nil
		}
	}
	v, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return 0, fmt.Errorf("number %s out of float32 range", tok)
	}
	return float32(v), nil
}

func errNotNumber(tok []byte) error { return fmt.Errorf("%q is not a number", tok) }
