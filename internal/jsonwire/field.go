package jsonwire

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// Field is one member of a struct's wire form: its name, how its value
// is appended and decoded, and, if set, when it is left out. With no
// decoder its value is skipped on input, like a key naming no field.
type Field[T any] struct {
	name, key string // key is the encoded name and its colon
	enc       func(dst []byte, v *T) ([]byte, error)
	dec       func(r *Reader, v *T) error
	omit      func(v *T) bool
}

// Value declares a field with its own encoder and decoder; a nil dec
// makes it encode-only.
func Value[T any](name string, enc func(dst []byte, v *T) ([]byte, error), dec func(r *Reader, v *T) error) Field[T] {
	return Field[T]{name: name, key: string(AppendString(nil, name)) + ":", enc: enc, dec: dec}
}

// scalar declares a field at p(v) written by enc and read by dec; null
// leaves it as it is.
func scalar[T, V any](name string, p func(*T) *V, enc func([]byte, V) ([]byte, error), dec func(*Reader) (V, error)) Field[T] {
	return Value(name,
		func(dst []byte, v *T) ([]byte, error) { return enc(dst, *p(v)) },
		func(r *Reader, v *T) error {
			if r.literal("null") {
				return nil
			}
			x, err := dec(r)
			*p(v) = x
			return err
		})
}

// String declares a string field.
func String[T any](name string, p func(*T) *string) Field[T] {
	return scalar(name, p,
		func(dst []byte, s string) ([]byte, error) { return AppendString(dst, s), nil },
		func(r *Reader) (string, error) {
			b, err := r.str(true)
			return string(b), err
		})
}

// Float declares a float64 field; a number beyond its range is an error.
func Float[T any](name string, p func(*T) *float64) Field[T] {
	return scalar(name, p, AppendFloat, func(r *Reader) (float64, error) {
		tok, err := r.number()
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(string(tok), 64)
	})
}

// Int declares an int or int64 field (a time.Duration, say): a
// fraction, an exponent or an overflow is an error.
func Int[T any, I int | int64](name string, p func(*T) *I) Field[T] {
	return scalar(name, p,
		func(dst []byte, n I) ([]byte, error) { return strconv.AppendInt(dst, int64(n), 10), nil },
		func(r *Reader) (I, error) {
			tok, err := r.number()
			if err != nil {
				return 0, err
			}
			n, err := strconv.ParseInt(string(tok), 10, 64)
			if err == nil && int64(I(n)) != n {
				err = r.fail("number overflows int")
			}
			return I(n), err
		})
}

// Bool declares a bool field.
func Bool[T any](name string, p func(*T) *bool) Field[T] {
	return scalar(name, p,
		func(dst []byte, b bool) ([]byte, error) { return strconv.AppendBool(dst, b), nil },
		func(r *Reader) (bool, error) {
			switch {
			case r.literal("true"):
				return true, nil
			case r.literal("false"):
				return false, nil
			}
			return false, r.fail("expected a boolean")
		})
}

// JSON declares a field that goes through encoding/json both ways.
func JSON[T, V any](name string, p func(*T) *V) Field[T] {
	return Value(name,
		func(dst []byte, v *T) ([]byte, error) {
			b, err := json.Marshal(p(v))
			return append(dst, b...), err
		},
		func(r *Reader, v *T) error {
			start := r.pos
			if err := r.Skip(); err != nil {
				return err
			}
			return json.Unmarshal(r.data[start:r.pos], p(v))
		})
}

// Struct declares a struct-valued field whose wire form is fields.
func Struct[T, F any](name string, p func(*T) *F, fields []Field[F]) Field[T] {
	return Value(name,
		func(dst []byte, v *T) ([]byte, error) { return AppendObject(dst, fields, p(v)) },
		func(r *Reader, v *T) error { return DecodeObject(r, fields, p(v)) })
}

// codec is a pointer to an E that encodes and decodes itself.
type codec[E any] interface {
	*E
	Appender
	Decoder
}

// Slice declares a field holding a slice of values that encode and
// decode themselves; nil is null. An array decodes as encoding/json
// decodes it: each element into the slot already at its index, reaching
// into spare capacity before growing, and the slice is cut to the
// elements read; [] leaves an empty non-nil slice, and null a nil one.
func Slice[T, E any, PE codec[E]](name string, p func(*T) *[]E) Field[T] {
	return Value(name,
		func(dst []byte, v *T) ([]byte, error) {
			s := *p(v)
			if s == nil {
				return append(dst, "null"...), nil
			}
			dst = append(dst, '[')
			var err error
			for i := range s {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = PE(&s[i]).AppendJSON(dst); err != nil {
					return dst, err
				}
			}
			return append(dst, ']'), nil
		},
		func(r *Reader, v *T) error {
			sp := p(v)
			if r.literal("null") {
				*sp = nil
				return nil
			}
			s := (*sp)[:0]
			err := r.Array(func() error {
				if len(s) < cap(s) {
					s = s[:len(s)+1]
				} else {
					s = append(s, *new(E))
				}
				return PE(&s[len(s)-1]).DecodeJSON(r)
			})
			if len(s) == 0 {
				s = []E{}
			}
			*sp = s
			return err
		})
}

// Ptr declares a field holding a pointer to a value that encodes and
// decodes itself. A nil pointer is null, or left out with omitEmpty; a
// decoded null sets it nil, and any other value decodes into the value
// it points at, allocated if nil.
func Ptr[T, E any, PE codec[E]](name string, p func(*T) *PE, omitEmpty bool) Field[T] {
	f := Value(name,
		func(dst []byte, v *T) ([]byte, error) {
			if e := *p(v); e != nil {
				return e.AppendJSON(dst)
			}
			return append(dst, "null"...), nil
		},
		func(r *Reader, v *T) error {
			switch pp := p(v); {
			case r.literal("null"):
				*pp = nil
				return nil
			case *pp == nil:
				*pp = PE(new(E))
			}
			return (*p(v)).DecodeJSON(r)
		})
	if omitEmpty {
		f.omit = func(v *T) bool { return *p(v) == nil }
	}
	return f
}

// DecodeObject decodes an object into *v through fields: null leaves *v
// as it is, each key decodes into the field it names (exactly, or else
// case-insensitively), and a key naming none is skipped.
func DecodeObject[T any](r *Reader, fields []Field[T], v *T) error {
	if r.literal("null") {
		return nil
	}
	next := 0 // keys usually come in wire order: try the next field first
	return r.Object(func(key []byte) error {
		i := next
		if i >= len(fields) || string(key) != fields[i].name {
			i = lookup(fields, key)
		}
		if i < 0 || fields[i].dec == nil {
			return r.Skip()
		}
		next = i + 1
		return fields[i].dec(r, v)
	})
}

// lookup returns the index of the field key names, exactly or else
// case-insensitively, or -1.
func lookup[T any](fields []Field[T], key []byte) int {
	folded := -1
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
		if folded < 0 && bytes.EqualFold(key, []byte(fields[i].name)) {
			folded = i
		}
	}
	return folded
}
