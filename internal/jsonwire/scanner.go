// Package jsonwire reads and writes the JSON of the plan wire format.
// The plan codec (internal/pipeline), the schedule codec (internal/plan)
// and the program codec (internal/program) read through one small,
// strict, single-pass Scanner, so a plan record is parsed once, front to
// back, with no reflection and no intermediate copies of its parts; the
// direct encoders share AppendInt.
//
// Strict means that whatever a Scanner accepts is valid JSON that
// encoding/json decodes to the same values. Object keys must match one of
// the caller's known keys exactly; a key that differs from a known key
// only in case (encoding/json would fold it onto the field) and a
// repeated known key (encoding/json would let the last one win) are
// errors. Unknown keys are validated and skipped, and insignificant
// whitespace is accepted anywhere JSON allows it.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxDepth bounds the nesting of skipped values. It sits well inside
// encoding/json's limit of 10,000, so nothing accepted here nests too
// deeply there.
const maxDepth = 1000

// Scanner reads JSON values from a byte slice, one at a time.
type Scanner struct {
	data []byte
	pos  int
	// depth counts the containers of skipped values being read.
	depth int
}

// New returns a Scanner positioned at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// End reports an error unless only whitespace is left.
func (s *Scanner) End() error {
	if s.ws(); s.pos < len(s.data) {
		return s.errorf("trailing data after the top-level value")
	}
	return nil
}

// Object reads one object. For each member whose key is one of keys it
// calls fn with that key (the element of keys, so callers can switch on
// it); fn must read the member's value. Other members are validated and
// skipped. A repeated known key, or a key equal to a known key under
// case folding but not exactly, is an error. keys holds at most 64
// entries.
func (s *Scanner) Object(keys []string, fn func(key string) error) error {
	return s.members(keys, func(i int) error { return fn(keys[i]) })
}

// Ints reads an object whose known members are all integers, storing
// the one under keys[i] in vals[i] (len(vals) == len(keys)); members
// that are absent leave their vals untouched. Keys follow Object's rules.
func (s *Scanner) Ints(keys []string, vals []int) error {
	return s.members(keys, func(i int) (err error) {
		vals[i], err = s.Int()
		return err
	})
}

// members reads one object, calling fn with the index in keys of each
// known member's key; fn must read the value.
func (s *Scanner) members(keys []string, fn func(i int) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	var seen uint64
	for n := 0; ; n++ {
		i, err := s.member(keys, n)
		if err != nil {
			return err
		}
		if i < 0 {
			if err := s.skip(); err != nil {
				return err
			}
		} else {
			if seen&(1<<i) != 0 {
				return s.errorf("repeated key %q", keys[i])
			}
			seen |= 1 << i
			if err := fn(i); err != nil {
				return err
			}
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.unexpected(`"," or "}"`)
		}
	}
}

// member reads a member's key and colon and returns the key's index in
// keys, or -1 for an unknown key. Members usually come in the order of
// keys and without whitespace, so `"keys[guess]":` is tried first,
// straight against the input. A key that folds onto a known one without
// matching it is an error.
func (s *Scanner) member(keys []string, guess int) (int, error) {
	if guess < len(keys) {
		key, d, at := keys[guess], s.data, s.pos
		if end := at + 1 + len(key); end+1 < len(d) && d[at] == '"' && d[end] == '"' && d[end+1] == ':' && string(d[at+1:end]) == key {
			s.pos = end + 2
			return guess, nil
		}
	}
	k, err := s.str()
	if err != nil {
		return 0, err
	}
	if err := s.expect(':'); err != nil {
		return 0, err
	}
	for i, key := range keys {
		if string(k) == key {
			return i, nil
		}
	}
	for _, key := range keys {
		if bytes.EqualFold(k, []byte(key)) {
			return 0, s.errorf("key %q differs from a known key only in case", k)
		}
	}
	return -1, nil
}

// Array reads one array, calling fn once per element; fn must read the
// element. A null literal reads as an absent array: fn is not called and
// null is true.
func (s *Scanner) Array(fn func() error) (null bool, err error) {
	if s.literal("null") {
		return true, nil
	}
	if err := s.expect('['); err != nil {
		return false, err
	}
	if s.peek() == ']' {
		s.pos++
		return false, nil
	}
	for {
		if err := fn(); err != nil {
			return false, err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return false, nil
		default:
			return false, s.unexpected(`"," or "]"`)
		}
	}
}

// FlatLen returns the number of elements of the array that starts next,
// if its elements are flat objects (objects holding no array): the
// count of '{' before the array's first ']'. It consumes only
// whitespace, and returns 0 when no array starts next. For any other array the count is
// only an estimate, so it is meant as a capacity hint.
func (s *Scanner) FlatLen() int {
	if s.peek() != '[' {
		return 0
	}
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{'{'})
}

// Int reads an integer: a JSON number with no fraction or exponent that
// fits in an int.
func (s *Scanner) Int() (int, error) {
	s.ws()
	d, start := s.data, s.pos
	i := start
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	if i >= len(d) || d[i] < '0' || d[i] > '9' {
		return 0, s.unexpected("an integer")
	}
	// Accumulate the magnitude, bounded by |math.MinInt|.
	const limit = uint64(math.MaxInt) + 1
	var n uint64
	if d[i] == '0' {
		i++
	} else {
		for ; i < len(d); i++ {
			c := d[i] - '0'
			if c > 9 {
				break
			}
			if n > limit/10 {
				return 0, s.errorf("integer %s out of range", s.numberText(start))
			}
			n = n*10 + uint64(c)
		}
	}
	s.pos = i
	if i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		return 0, s.errorf("number %s is not an integer", s.numberText(start))
	}
	if n > limit || (!neg && n == limit) {
		return 0, s.errorf("integer %s out of range", s.numberText(start))
	}
	if neg {
		return int(-n), nil
	}
	return int(n), nil
}

// numberText renders the number starting at start for an error message.
func (s *Scanner) numberText(start int) string {
	s.pos = start
	_ = s.number()
	return string(s.data[start:s.pos])
}

// Float64 reads a number as encoding/json does for a float64 field.
func (s *Scanner) Float64() (float64, error) {
	s.ws()
	start := s.pos
	if err := s.number(); err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	if err != nil {
		return 0, s.errorf("number %s: %v", s.data[start:s.pos], err)
	}
	return f, nil
}

// Bool reads true or false.
func (s *Scanner) Bool() (bool, error) {
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	}
	return false, s.unexpected("true or false")
}

// String reads a string. Strings without escapes and in valid UTF-8 are
// sliced straight out of the input; the rest are unquoted by
// encoding/json, so every escape and every invalid byte decodes exactly
// as it would there.
func (s *Scanner) String() (string, error) {
	b, err := s.str()
	return string(b), err
}

// str reads a string like String, returning its value without a copy
// when it needs no unquoting.
func (s *Scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos - 1
	plain, err := s.stringBody()
	if err != nil {
		return nil, err
	}
	if plain {
		return s.data[start+1 : s.pos-1], nil
	}
	var out string
	if err := json.Unmarshal(s.data[start:s.pos], &out); err != nil {
		return nil, s.errorf("%v", err)
	}
	return []byte(out), nil
}

// Raw reads one value of any kind, validated, and returns its bytes.
func (s *Scanner) Raw() ([]byte, error) {
	s.ws()
	start := s.pos
	if err := s.skip(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// skip reads and validates one value of any kind.
func (s *Scanner) skip() error {
	switch c := s.peek(); c {
	case '{', '[':
		if s.depth++; s.depth > maxDepth {
			return s.errorf("exceeded max depth")
		}
		defer func() { s.depth-- }()
		if c == '{' {
			return s.members(nil, nil) // no known keys: every member is skipped
		}
		_, err := s.Array(s.skip)
		return err
	case '"':
		s.pos++
		_, err := s.stringBody()
		return err
	case 't', 'f', 'n':
		if s.literal("true") || s.literal("false") || s.literal("null") {
			return nil
		}
		return s.unexpected("a value")
	}
	return s.number()
}

// stringBody reads the rest of a string whose opening quote has been
// consumed, validating escapes and rejecting control characters. plain
// reports that the body has no escapes and is valid UTF-8, so its bytes
// are its value.
func (s *Scanner) stringBody() (plain bool, err error) {
	d := s.data
	start := s.pos
	plain = true
	high := false
	for s.pos < len(d) {
		c := d[s.pos]
		switch {
		case c == '"':
			s.pos++
			if high && plain {
				plain = utf8.Valid(d[start : s.pos-1])
			}
			return plain, nil
		case c == '\\':
			plain = false
			if s.pos+1 >= len(d) {
				s.pos = len(d)
				return false, s.unexpected("an escape")
			}
			switch d[s.pos+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos += 2
			case 'u':
				if s.pos+6 > len(d) {
					s.pos = len(d)
					return false, s.unexpected("four hex digits")
				}
				for _, h := range d[s.pos+2 : s.pos+6] {
					if !isHex(h) {
						return false, s.errorf("invalid \\u escape")
					}
				}
				s.pos += 6
			default:
				return false, s.errorf("invalid escape \\%c", d[s.pos+1])
			}
		case c < 0x20:
			return false, s.errorf("control character %#02x in string", c)
		default:
			if c >= utf8.RuneSelf {
				high = true
			}
			s.pos++
		}
	}
	return false, s.unexpected(`closing '"'`)
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// number reads one JSON number.
func (s *Scanner) number() error {
	d := s.data
	digits := func() bool {
		at := s.pos
		for s.pos < len(d) && d[s.pos] >= '0' && d[s.pos] <= '9' {
			s.pos++
		}
		return s.pos > at
	}
	if s.pos < len(d) && d[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(d) && d[s.pos] == '0':
		s.pos++
	case !digits():
		return s.unexpected("a value")
	}
	if s.pos < len(d) && d[s.pos] == '.' {
		s.pos++
		if !digits() {
			return s.unexpected("a digit")
		}
	}
	if s.pos < len(d) && (d[s.pos] == 'e' || d[s.pos] == 'E') {
		s.pos++
		if s.pos < len(d) && (d[s.pos] == '+' || d[s.pos] == '-') {
			s.pos++
		}
		if !digits() {
			return s.unexpected("a digit")
		}
	}
	return nil
}

// literal consumes word if it is next.
func (s *Scanner) literal(word string) bool {
	s.ws()
	if end := s.pos + len(word); end <= len(s.data) && string(s.data[s.pos:end]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

func (s *Scanner) expect(c byte) error {
	if s.peek() != c {
		return s.unexpected(fmt.Sprintf("%q", c))
	}
	s.pos++
	return nil
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	s.ws()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// ws skips whitespace. Every whitespace byte is <= ' ', so the common
// case — none — costs one comparison.
func (s *Scanner) ws() {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return
	}
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input, want %s", want)
	}
	return s.errorf("unexpected %q, want %s", s.data[s.pos], want)
}

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}
