package experiments

import (
	"bytes"
	"strconv"
)

// decodeEvalFast decodes an EvalRequest body in one pass when the body
// stays inside a subset of JSON on which encoding/json's result is known
// to be identical:
//
//   - one object whose keys are the exact lowercase field names, without
//     escapes, each at most once;
//   - strings of printable ASCII without escapes;
//   - values as plain unsigned decimal integers that fit in a uint64;
//   - random and max_* as integers, quick as true or false, lambda as a
//     JSON number that strconv.ParseFloat accepts;
//   - nothing but whitespace after the closing brace.
//
// Anything else reports false and the caller runs encoding/json, which
// stays the single source of truth for case-folded or duplicate keys,
// null, escapes and every error message. The request is not normalized.
func decodeEvalFast(data []byte) (EvalRequest, bool) {
	s := evalScanner{data: data}
	var req EvalRequest
	if !s.object(&req) {
		return EvalRequest{}, false
	}
	s.skipSpace()
	if s.i != len(s.data) {
		return EvalRequest{}, false
	}
	return req, true
}

type evalScanner struct {
	data []byte
	i    int
}

// The EvalRequest fields, as bits of the decoder's seen-set.
const (
	fieldWorkload = 1 << iota
	fieldBus
	fieldRandom
	fieldValues
	fieldScheme
	fieldLambda
	fieldVerify
	fieldQuick
	fieldMaxInstructions
	fieldMaxBusValues
)

func (s *evalScanner) object(req *EvalRequest) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		var field int
		switch string(key) {
		case "workload":
			field, ok = fieldWorkload, s.strField(&req.Workload)
		case "bus":
			field, ok = fieldBus, s.strField(&req.Bus)
		case "random":
			field, ok = fieldRandom, s.intField(&req.Random)
		case "values":
			field, ok = fieldValues, s.values(&req.Values)
		case "scheme":
			field, ok = fieldScheme, s.strField(&req.Scheme)
		case "lambda":
			field, ok = fieldLambda, s.floatField(&req.Lambda)
		case "verify":
			field, ok = fieldVerify, s.strField(&req.Verify)
		case "quick":
			field, ok = fieldQuick, s.boolField(&req.Quick)
		case "max_instructions":
			field, ok = fieldMaxInstructions, s.uintField(&req.MaxInstructions)
		case "max_bus_values":
			field, ok = fieldMaxBusValues, s.intField(&req.MaxBusValues)
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

func (s *evalScanner) skipSpace() { s.i = skipSpace(s.data, s.i) }

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// consume skips whitespace and then the byte c, reporting whether c was
// there.
func (s *evalScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string literal of printable ASCII without escapes and
// returns its contents.
func (s *evalScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *evalScanner) strField(dst *string) bool {
	b, ok := s.str()
	if ok {
		*dst = string(b)
	}
	return ok
}

func (s *evalScanner) boolField(dst *bool) bool {
	s.skipSpace()
	switch rest := s.data[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+len("false")
	default:
		return false
	}
	return true
}

// number scans a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// has neither fraction nor exponent.
func (s *evalScanner) number() (lit []byte, integer bool) {
	s.skipSpace()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, false
	}
	integer = true
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
		integer = false
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
		integer = false
	}
	return s.data[start:s.i], integer
}

// peek returns the next byte, or 0 at the end of the input.
func (s *evalScanner) peek() byte {
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

// digits skips a run of decimal digits, reporting whether it was
// non-empty.
func (s *evalScanner) digits() bool {
	start := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *evalScanner) intField(dst *int) bool {
	lit, integer := s.number()
	if !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (s *evalScanner) uintField(dst *uint64) bool {
	lit, integer := s.number()
	if !integer {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (s *evalScanner) floatField(dst *float64) bool {
	lit, _ := s.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// values scans an array of unsigned decimal integers. The slice is sized
// from the comma count up to the first ']', which is exact for a
// well-formed array and at most half the array's byte length otherwise.
func (s *evalScanner) values(dst *[]uint64) bool {
	if !s.consume('[') {
		return false
	}
	data, i := s.data, s.i
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return false
	}
	vals := make([]uint64, 0, min(bytes.Count(data[i:i+end], []byte(",")), end/2)+1)
	i = skipSpace(data, i)
	if i < len(data) && data[i] == ']' {
		s.i, *dst = i+1, vals
		return true
	}
	// The index lives in a local here rather than in s: this loop is
	// the served-miss hot path.
	for {
		start := i
		var v uint64
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			v = v*10 + uint64(data[i]-'0')
		}
		switch width := i - start; {
		case width == 0, width > 1 && data[start] == '0':
			return false // no digits, or a leading zero
		case width >= 20:
			// Only 20-digit literals can overflow (10^19 < 2^64 < 10^20).
			var err error
			if v, err = strconv.ParseUint(string(data[start:i]), 10, 64); err != nil {
				return false
			}
		}
		vals = append(vals, v)
		if i = skipSpace(data, i); i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			s.i, *dst = i+1, vals
			return true
		default:
			return false
		}
	}
}
