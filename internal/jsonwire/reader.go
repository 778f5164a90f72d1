package jsonwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: an object or array opened
// deeper than this is a syntax error.
const maxDepth = 10000

// Reader is a single-pass JSON decoder over one input. Each read skips
// leading whitespace and consumes one value, checking its syntax; a
// value of the wrong kind for the target is an error.
type Reader struct {
	data  []byte
	pos   int
	depth int
}

// Decode decodes data, which must hold exactly one JSON value and
// nothing else but whitespace, into v.
func Decode(data []byte, v Decoder) error {
	r := &Reader{data: data}
	if err := v.DecodeJSON(r); err != nil {
		return err
	}
	if r.space(); r.pos < len(r.data) {
		return r.fail("data after the top-level value")
	}
	return nil
}

func (r *Reader) fail(msg string) error {
	return fmt.Errorf("jsonwire: %s at offset %d", msg, r.pos)
}

// space skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) space() byte {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// literal consumes word if it comes next and reports whether it did.
func (r *Reader) literal(word string) bool {
	if r.space(); !bytes.HasPrefix(r.data[r.pos:], []byte(word)) {
		return false
	}
	r.pos += len(word)
	return true
}

// number consumes a number token, checked against JSON's grammar (no
// leading zeros, digits on both sides of a point, a signed exponent).
func (r *Reader) number() ([]byte, error) {
	r.space()
	d, start, j := r.data, r.pos, r.pos
	digits := func() int {
		n := j
		for j < len(d) && '0' <= d[j] && d[j] <= '9' {
			j++
		}
		return j - n
	}
	if j < len(d) && d[j] == '-' {
		j++
	}
	n := digits()
	ok := n > 0 && (n == 1 || d[j-n] != '0')
	if j < len(d) && d[j] == '.' {
		j++
		ok = ok && digits() > 0
	}
	if j < len(d) && (d[j] == 'e' || d[j] == 'E') {
		if j++; j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		ok = ok && digits() > 0
	}
	if !ok {
		return nil, r.fail("invalid number")
	}
	r.pos = j
	return d[start:j], nil
}

// plainByte[c] is set for the bytes that stand for themselves in a JSON
// string: printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes a string, checking its syntax, and returns its content.
// With unquote set, content with escapes or non-ASCII bytes is unquoted
// by encoding/json itself, so surrogates and invalid UTF-8 come out
// exactly as json.Unmarshal leaves them.
func (r *Reader) str(unquote bool) ([]byte, error) {
	if r.space() != '"' {
		return nil, r.fail("expected a string")
	}
	d, start, plain := r.data, r.pos, true
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case plainByte[c]:
		case c == '"':
			r.pos = i + 1
			if plain || !unquote {
				return d[start+1 : i], nil
			}
			var s string
			err := json.Unmarshal(d[start:r.pos], &s)
			return []byte(s), err
		case c == '\\':
			plain, i = false, i+1
			if i < len(d) && d[i] == 'u' && i+5 <= len(d) {
				if _, err := strconv.ParseUint(string(d[i+1:i+5]), 16, 64); err == nil {
					i += 4
					continue
				}
			} else if i < len(d) && strings.IndexByte(`"\/bfnrt`, d[i]) >= 0 {
				continue
			}
			r.pos = i
			return nil, r.fail("invalid escape in string")
		case c < ' ':
			r.pos = i
			return nil, r.fail("control character in string")
		default:
			plain = false // non-ASCII, valid UTF-8 or not
		}
	}
	r.pos = len(d)
	return nil, r.fail("unterminated string")
}

// list reads an array or object from open to close, calling elem, which
// must consume one member, for each.
func (r *Reader) list(open, close byte, elem func() error) error {
	if r.space() != open {
		return r.fail("expected " + string(open))
	}
	if r.depth++; r.depth > maxDepth {
		return r.fail("exceeded max nesting depth")
	}
	r.pos++
	if r.space() != close {
		for {
			if err := elem(); err != nil {
				return err
			}
			if r.space() != ',' {
				break
			}
			r.pos++
		}
		if r.space() != close {
			return r.fail("expected , or " + string(close))
		}
	}
	r.pos++
	r.depth--
	return nil
}

// Array reads an array, calling elem once per element.
func (r *Reader) Array(elem func() error) error { return r.list('[', ']', elem) }

// Object reads an object, calling member with each key once the reader
// stands at its value; member must consume the value.
func (r *Reader) Object(member func(key []byte) error) error {
	return r.list('{', '}', func() error {
		key, err := r.str(true)
		if err != nil {
			return err
		}
		if r.space() != ':' {
			return r.fail("expected : after an object key")
		}
		r.pos++
		return member(key)
	})
}

// Skip consumes one value of any kind, checking its syntax.
func (r *Reader) Skip() error {
	switch c := r.space(); {
	case c == '{':
		return r.Object(func([]byte) error { return r.Skip() })
	case c == '[':
		return r.Array(r.Skip)
	case c == '"':
		_, err := r.str(false)
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := r.number()
		return err
	case r.literal("true"), r.literal("false"), r.literal("null"):
		return nil
	}
	return r.fail("expected a value")
}
