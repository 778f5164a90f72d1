// Package jsonwire encodes and decodes the served path's JSON without
// reflection, byte for byte and value for value as encoding/json does.
// The decoder is single-pass and accepts exactly what json.Unmarshal
// accepts: keys match case-insensitively, a repeated key decodes again
// into what the first left, null leaves a scalar or struct alone and
// clears a slice or pointer, unknown keys are skipped, and nesting stops
// at 10,000 levels. A string that is not plain ASCII is handed to
// encoding/json either way, so its escapes match by construction. A
// type's wire form is declared once, as a []Field in wire order that
// both AppendObject and DecodeObject read.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// An Appender appends its own JSON encoding to dst, and a Decoder
// decodes itself from the next value of r.
type (
	Appender interface {
		AppendJSON(dst []byte) ([]byte, error)
	}
	Decoder interface{ DecodeJSON(r *Reader) error }
)

// AppendString appends s as a JSON string. One that is all plain,
// HTML-safe ASCII is written as it is; any other goes through
// encoding/json, so its escapes (HTML characters, controls, invalid
// UTF-8, U+2028 and U+2029) are encoding/json's on every Go version.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte[c] || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// AppendFloat appends f as encoding/json writes a float64. NaN and ±Inf
// have no JSON form and are an error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonwire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	form := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		form = 'e'
	}
	dst = strconv.AppendFloat(dst, f, form, -1, 64)
	if n := len(dst); form == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 becomes e-9, as in encoding/json
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendObject appends *v as a JSON object of fields, in their order.
func AppendObject[T any](dst []byte, fields []Field[T], v *T) ([]byte, error) {
	sep, err := byte('{'), error(nil)
	for i := range fields {
		if f := &fields[i]; f.omit == nil || !f.omit(v) {
			if dst, err = f.enc(append(append(dst, sep), f.key...), v); err != nil {
				return dst, err
			}
			sep = ','
		}
	}
	if sep == '{' {
		dst = append(dst, '{')
	}
	return append(dst, '}'), nil
}

// Append appends v's JSON to dst: through its own codec if v is an
// Appender, else through encoding/json, with the same bytes either way.
func Append(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(Appender); ok {
		return a.AppendJSON(dst)
	}
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.Bytes()[:buf.Len()-1], nil // Encode ends with a newline
}

// Unmarshal decodes data into v: through its own codec if v is a
// Decoder, else through json.Unmarshal.
func Unmarshal(data []byte, v any) error {
	if d, ok := v.(Decoder); ok {
		return Decode(data, d)
	}
	return json.Unmarshal(data, v)
}
